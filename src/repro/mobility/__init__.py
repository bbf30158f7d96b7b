"""Mobility substrate: the random waypoint model and client-side logic."""

from repro.mobility.client import Clients, MobileClient
from repro.mobility.waypoint import Fleet, RandomWaypointModel, Segment, Trajectory

__all__ = ["RandomWaypointModel", "Fleet", "Trajectory", "Segment", "Clients", "MobileClient"]

"""Pluggable congestion controllers for the paranoid transport."""

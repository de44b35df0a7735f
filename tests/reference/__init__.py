"""Brute-force models that the tests hold the system's code against."""

"""Quantum tetrahedra, spin-network vertex amplitudes, and a tomography rehearsal."""

__version__ = "0.1.0"

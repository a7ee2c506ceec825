"""Two-qubit amplitude damping, concurrence, and entanglement sudden death."""

__version__ = "0.1.0"

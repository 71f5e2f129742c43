"""Monte Carlo simulator for central-broadcast QKD with displaced thermal states."""

__version__ = "0.1.0"

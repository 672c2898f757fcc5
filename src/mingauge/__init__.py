"""mingauge: integral-geometric invariants of triangulated minimal surfaces."""

__version__ = "0.1.0"

"""mingauge: integral-geometric invariants of triangulated minimal surfaces."""

__version__ = "0.1.0"

# Exports resolve lazily so the command-line entry point can pin BLAS thread
# counts in the environment before numpy is first imported.
_EXPORTS = {
    "ImmersionChart": ".geometry",
    "SimplicialSurface": ".geometry",
    "level_chords": ".geometry",
    "mesh_from_chart": ".geometry",
    "radial_integrals": ".geometry",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name):
    if name in _EXPORTS:
        from importlib import import_module

        value = getattr(import_module(_EXPORTS[name], __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

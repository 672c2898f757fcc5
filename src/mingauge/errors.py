"""Exception types shared across the package."""


class MingaugeError(Exception):
    """Base class for all package-specific errors."""


class DegenerateChartError(MingaugeError):
    """A chart's first fundamental form is singular somewhere on the grid."""


class MeshTopologyError(MingaugeError):
    """Mesh connectivity is inconsistent (bad edges, orientation, indices)."""


class IdentityNotApplicableError(MingaugeError):
    """Preconditions of an integral identity fail on the given data."""


class ConfigError(MingaugeError):
    """A run configuration is invalid.

    ``field`` holds a dotted path into the offending entry so the CLI can
    print actionable diagnostics.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")

"""Run the ``mingauge`` command line in this process, for the benchmark.

Usage::

    python3 child.py SRC_DIR OUT_JSON MODE -- <mingauge arguments>

``SRC_DIR`` holds the ``mingauge`` package that is run.  ``MODE`` is one of

* ``plain``  -- run the command and stamp the moment the input surface
  (``build_surface`` or ``spherical_region``) is returned;
* ``probe``  -- the same, but stop right after that stamp (a set-up probe);
* ``trace``  -- run the command with spans around the calls into each layer.

On exit the child writes ``OUT_JSON``: the set-up stamp and, when traced,
its spans and counters.  Times come from ``time.monotonic``
(CLOCK_MONOTONIC), which the parent shares, so the parent can time set-up
from the moment it spawned the child.

Nothing under ``SRC_DIR`` is changed: layers are traced by replacing module
attributes in memory, right after each ``mingauge`` module has executed, so
every later lookup through that module sees the traced function.  Modules are
imported in the order the command line imports them, so ``MINGAUGE_THREADS``
still reaches the environment before numpy is first imported.
"""
import functools
import importlib.abc
import importlib.machinery
import inspect
import json
import os
import sys
import time


class Tracer:
    """Spans and counters kept in memory until the child exits.

    A span is ``[name, start, end, parent]``; ``parent`` is the index of the
    enclosing span or ``None``.  The command runs in one thread, so an
    explicit stack gives each span its parent.
    """

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.monotonic(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        self.spans[index][2] = time.monotonic()
        self._stack.pop()

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def wrap(self, fn, name, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_return is not None:
                on_return(self, _bound(fn, args, kwargs), result)
            return result
        return traced


def _bound(fn, args, kwargs):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments
    except (TypeError, ValueError):
        return {}


# Counters derived from a traced call's arguments and result.  A layer whose
# signature or result no longer has the field simply adds nothing.

def _count_surface(tracer, _args, spec):
    mesh = getattr(spec, "mesh", spec)
    if hasattr(mesh, "triangles"):
        tracer.count("catalog.triangles", len(mesh.triangles))


def _count_sweep(tracer, args, result):
    mesh = args.get("mesh")
    if hasattr(mesh, "triangles") and isinstance(result, dict):
        tracer.count("intgeom.counting.cells",
                     len(mesh.triangles) * result.get("samples", 0))
        tracer.count("intgeom.counting.jittered", result.get("jittered", 0))


def _count_crofton(tracer, args, result):
    region = args.get("region")
    if hasattr(region, "triangles") and isinstance(result, dict):
        # one edge-plane dot product per (triangle edge, sample)
        tracer.count("intgeom.crofton.cells",
                     3 * len(region.triangles) * result.get("samples", 0))
        tracer.count("intgeom.crofton.jittered", result.get("jittered", 0))


# module -> [(attribute, span name, counter)].  Geometry is traced at the
# names ``mingauge.invariants`` imports, so its spans are the quadrature and
# level-curve work of the invariants layer.
LAYERS = {
    "mingauge.catalog": [
        ("build_surface", "catalog.build_surface", _count_surface),
        ("spherical_region", "catalog.spherical_region", _count_surface),
        ("verify_minimality", "catalog.verify_minimality", None),
    ],
    "mingauge.ends": [
        ("ends_estimate", "ends.ends_estimate", None),
    ],
    "mingauge.invariants": [
        ("integrate_mesh", "geometry.integrate_mesh", None),
        ("integrate_with_error", "geometry.integrate_with_error", None),
        ("level_polyline", "geometry.level_polyline", None),
        ("surface_measure", "geometry.surface_measure", None),
        ("flux_profile", "invariants.flux_profile", None),
        ("projective_volume", "invariants.projective_volume", None),
        ("radial_defect", "invariants.radial_defect", None),
        ("boundary_constant", "invariants.boundary_constant", None),
        ("check_monotonicity", "invariants.check_monotonicity", None),
        ("check_defect_volume_identity",
         "invariants.check_defect_volume_identity", None),
        ("check_flux_shell_identity",
         "invariants.check_flux_shell_identity", None),
        ("check_density_identity", "invariants.check_density_identity", None),
        ("check_band_area_bound", "invariants.check_band_area_bound", None),
    ],
    "mingauge.intgeom": [
        ("counting_sweep", "intgeom.counting_sweep", _count_sweep),
        ("crofton_verify", "intgeom.crofton_verify", _count_crofton),
    ],
    "mingauge.report": [
        ("run_report", "report.run_report", None),
        ("compute_report", "report.compute_report", None),
        ("validate_report", "report.validate_report", None),
    ],
}

# the functions whose return ends set-up: the input surface exists
SETUP_DONE = {"mingauge.catalog": ("build_surface", "spherical_region")}


class _AfterImport(importlib.abc.MetaPathFinder):
    """Call ``hook(module)`` after each ``mingauge`` module executes."""

    def __init__(self, hook, tracer=None):
        self.hook = hook
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        if name != "mingauge" and not name.startswith("mingauge."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        execute = spec.loader.exec_module
        tracer = self.tracer

        def exec_module(module):
            index = tracer.open("cli.import") if tracer else None
            try:
                execute(module)
            finally:
                if tracer:
                    tracer.close(index)
            self.hook(module)

        spec.loader.exec_module = exec_module
        return spec


class Child:
    """One run of the command line in ``MODE``, and the record it writes."""

    def __init__(self, out_path, mode):
        self.out_path = out_path
        self.mode = mode
        self.tracer = Tracer() if mode == "trace" else None
        self.setup_done = None

    def patch(self, module):
        names = SETUP_DONE.get(module.__name__, ())
        for attr in names:
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, self._stamped(fn))
        if self.tracer is None:
            return
        for attr, span, counter in LAYERS.get(module.__name__, ()):
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, self.tracer.wrap(fn, span, counter))

    def _stamped(self, fn):
        @functools.wraps(fn)
        def stamped(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.setup_done is None:
                self.setup_done = time.monotonic()
                if self.mode == "probe":
                    self.write()
                    os._exit(0)
            return result
        return stamped

    def write(self):
        record = {"setup_done": self.setup_done}
        if self.tracer is not None:
            record["spans"] = self.tracer.spans
            record["counters"] = self.tracer.counters
        with open(self.out_path, "w") as fh:
            json.dump(record, fh)

    def run(self, src, argv):
        sys.path.insert(0, src)
        sys.meta_path.insert(0, _AfterImport(self.patch, self.tracer))
        try:
            from mingauge import cli
            main = cli.main
            if self.tracer is not None:
                main = self.tracer.wrap(main, "cli.main")
            return main(argv)
        finally:
            self.write()


def main():
    src, out_path, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "probe", "trace"):
        sys.exit("usage: child.py SRC_DIR OUT_JSON plain|probe|trace -- ARGS")
    sys.exit(Child(out_path, mode).run(src, argv))


if __name__ == "__main__":
    main()

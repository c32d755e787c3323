"""One popperlab CLI command in a fresh interpreter, optionally traced.

    python3 perfbench/child.py MODE STATS_FILE -- <popperlab arguments>

MODE is one of

* ``plain``:  import ``popperlab.cli`` and call ``cli.main`` exactly as the
  ``popperlab`` console script does; nothing is wrapped.
* ``spans``:  wrap each layer's public functions where their callers look
  them up, then call ``cli.main``.  Each call becomes a span with its start,
  end, parent span and the counts it computed.
* ``memory``: as ``spans``, with ``tracemalloc`` on, so each span also
  records the peak traced memory it added above its starting level.
* ``facts``:  import ``popperlab.cli`` and record machine facts; runs no
  command.

The child writes its import time, the wall time of ``cli.main`` and the
spans to STATS_FILE as JSON and exits with the command's exit code.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc

_T0 = time.perf_counter()
import popperlab.cli as cli  # noqa: E402  (the import is what setup_s times)

IMPORT_S = time.perf_counter() - _T0


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _dense_counts(args, kwargs, result) -> dict:
    recipe = _arg(args, kwargs, 0, "recipe")
    amplitudes = recipe.grid1.n_points * recipe.grid2.n_points
    return {"amplitudes": amplitudes, "dense_bytes": 16 * amplitudes}


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _counter(key: str, index: int, name: str):
    return lambda args, kwargs, result: {key: int(_arg(args, kwargs, index, name))}


# (span name, defining module, function, counts computed from the call)
LAYERS = [
    ("params.validate", "popperlab.params", "validate", None),
    ("params.auto_grid", "popperlab.params", "auto_grid", None),
    ("states.build_joint_state", "popperlab.states", "build_joint_state", _dense_counts),
    ("wavefunction.schmidt", "popperlab.wavefunction", "schmidt", None),
    ("wavefunction.momentum_std_spectral", "popperlab.wavefunction",
     "momentum_std_spectral", None),
    ("wavefunction.position_stats", "popperlab.wavefunction", "position_stats", None),
    ("wavefunction.save_wavefunction", "popperlab.wavefunction", "save_wavefunction",
     _file_bytes),
    ("measurement.conditional_reduce", "popperlab.measurement", "conditional_reduce", None),
    ("evolution.free_propagate", "popperlab.evolution", "free_propagate", None),
    ("experiment.run_scenario", "popperlab.experiment", "run_scenario", None),
    ("experiment.sample_positions", "popperlab.experiment", "sample_positions",
     _counter("samples", 1, "n")),
    ("experiment.sample_joint", "popperlab.experiment", "sample_joint",
     _counter("pairs", 1, "n")),
    ("experiment.histogram", "popperlab.experiment", "histogram", None),
    ("experiment.ks_against_density", "popperlab.experiment", "ks_against_density", None),
    ("cli._load_config", "popperlab.cli", "_load_config", None),
    ("cli._sweep_step", "popperlab.cli", "_sweep_step", None),
]
# Xoshiro256StarStar.uniforms is a method: it is wrapped on the class.
RNG_SPAN = ("rng.uniforms", _counter("count", 1, "n"))


class Recorder:
    """Spans kept in memory and written out when the command ends.

    A span is [name, start, end, parent index, peak bytes, counts, error].
    With ``memory`` on, the peak is the largest traced memory seen while the
    span was open, less the traced memory when it opened; nested spans
    share tracemalloc's single peak register through ``_fold_peak``.
    """

    def __init__(self, memory: bool):
        self.memory = memory
        self.spans: list[list] = []
        self.stack: list[int] = []

    def _fold_peak(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        for i in self.stack:
            self.spans[i][4] = max(self.spans[i][4], peak)
        tracemalloc.reset_peak()
        return current

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            base = self._fold_peak() if self.memory else 0
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, base, {}, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[6] = type(exc).__name__
                raise
            else:
                if counts is not None:
                    span[5] = counts(args, kwargs, result)
                return result
            finally:
                span[2] = time.perf_counter()
                if self.memory:
                    self._fold_peak()
                self.stack.pop()
                span[4] -= base

        return wrapper


def install(recorder: Recorder) -> None:
    """Rebind every popperlab global that names a layer function to its wrapper."""
    modules = [m for n, m in sys.modules.items()
               if (n == "popperlab" or n.startswith("popperlab.")) and m is not None]
    for name, module, attr, counts in LAYERS:
        original = getattr(sys.modules[module], attr)
        wrapper = recorder.wrap(name, original, counts)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
    rng = sys.modules["popperlab.rng"].Xoshiro256StarStar
    rng.uniforms = recorder.wrap(RNG_SPAN[0], rng.uniforms, RNG_SPAN[1])


def _blas_facts() -> dict:
    """BLAS vendor from numpy's build record; thread count from the loaded library."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "blas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads", "MKL_Get_Max_Threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            break
    return {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def facts() -> dict:
    import platform

    import numpy as np
    import scipy

    mem_total = None
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_total = int(line.split()[1]) * 1024
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "mem_total_bytes": mem_total,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **_blas_facts(),
    }


def run_command(mode: str, argv: list[str], stats: dict) -> int:
    recorder = Recorder(memory=mode == "memory")
    if mode != "plain":
        install(recorder)
    if recorder.memory:
        tracemalloc.start()
    t0 = time.perf_counter()
    try:
        return cli.main(argv)
    finally:
        stats["main_s"] = time.perf_counter() - t0
        if recorder.memory:
            tracemalloc.stop()
        stats["spans"] = recorder.spans


def main() -> int:
    mode, stats_path, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "spans", "memory", "facts"):
        print("usage: child.py plain|spans|memory|facts STATS_FILE -- ARGS",
              file=sys.stderr)
        return 2
    stats = {"import_s": IMPORT_S, "popperlab_file": cli.__file__}
    try:
        if mode == "facts":
            stats["facts"] = facts()
            return 0
        return run_command(mode, argv, stats)
    finally:
        with open(stats_path, "w") as f:
            json.dump(stats, f)


if __name__ == "__main__":
    sys.exit(main())

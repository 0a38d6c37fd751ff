import sys
from pathlib import Path

from isohash import admm, colgen, metrics

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracer_resolves_against_package():
    # the per-layer tracer wraps module attributes by name, so a rename in
    # the package fails here rather than in `perfbench/run.py --trace 1`
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    originals = (admm.w_step, colgen.scan_violators, metrics.max_distortion)
    restore = tracing.instrument(tracing.Recorder())
    try:
        assert colgen.scan_violators is not originals[1]
    finally:
        restore()
    assert (admm.w_step, colgen.scan_violators, metrics.max_distortion) == originals

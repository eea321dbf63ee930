"""Tests for the benchmark's calibrated pass timing.

    python3 -m pytest bench/tests
"""

import signal
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402


class Counting:
    """A workload of fixed pure-Python work, long enough for several
    calibration samples."""

    def call(self):
        return sum(i * i % 7 for i in range(3_000_000))

    def check(self, raw):
        return run.Outcome()


def test_calibration_task_is_fixed_work():
    assert run.calibration_task() == run.calibration_task()


def test_calibrated_pass_samples_during_the_call_and_disarms():
    calibrator = run.Calibrator()
    rel, outcome = run.timed_pass(Counting(), calibrator)
    assert outcome.failed == 0
    assert len(calibrator.times) >= 2
    assert rel > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    taken = len(calibrator.times)
    Counting().call()  # an alarm still armed would add a sample here
    assert len(calibrator.times) == taken


def test_short_pass_gets_one_sample():
    calibrator = run.Calibrator()
    calibrator.start()
    assert len(calibrator.stop()) == 1

"""The benchmark suite: every experiment of the one table, run and checked.

One test per entry of :func:`repro.bench.paper.experiments` — the
paper's tables and figures, then the repo's own ablations, extensions
and subsystem benches.  Each runs its driver once at this session's
scale (``REPRO_FULL=1``: ``full``, else ``default``), prints the
declared printer's report, saves the result and every series in it
under ``benchmarks/results/``, and checks every declared finding, the
host-time (``wall``) ones included.  A finding, a printer or a scale
is changed where it is declared, never here.
"""

import pytest

from repro.bench.paper import assert_reproduced, experiments
from repro.sim.monitor import Series
from conftest import scale

def series_in(value, path=()):
    """``(path, series)`` for every :class:`Series` inside ``value``,
    through dicts, lists and tuples; ``path`` is the keys to it."""
    if isinstance(value, Series):
        yield path, value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from series_in(item, path + (str(key),))
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from series_in(item, path + (str(index),))


@pytest.mark.parametrize("name", experiments())
def test_experiment(name, benchmark, report):
    exp = experiments()[name]
    result = benchmark.pedantic(
        exp.run, kwargs=exp.scales[scale()], rounds=1, iterations=1
    )
    report.add(exp.render(result))
    report.add_data("result", result)
    for path, series in series_in(result):
        report.add_series("_".join(path), series)
    assert_reproduced(exp, result)

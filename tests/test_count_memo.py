"""The model stage counts each iteration domain once per analysis.

Every statement, call site and loop head of one loop body shares its
domain, and ``MetricGenerator.generate`` keeps a memo of the domains it
has counted.  These tests pin what the memo must keep:

- [x] a triangular nest with many statements calls ``count_nest`` once per
      distinct domain
- [x] a domain with unproven extents shared by two functions puts the same
      extents, in the same order, into each function's assumptions
- [x] analyses in concurrent threads give the serial documents
- [x] a second ``generate`` counts every domain again (the memo belongs to
      one call, not to the generator or the process)
"""

import threading

import pytest

import repro.core.metric_generator as mg
from repro.core import AnalysisConfig, Pipeline
from repro.workloads import available, get_source

TRIANGULAR = """\
void tri(double *a, double *b, int n)
{
    for (int i = 0; i < n; i++) {
        for (int j = 0; j <= i; j++) {
            a[i] = a[i] + b[j];
            b[j] = b[j] * 2.0;
            a[j] = a[i] - b[j];
            b[i] = a[j] + 1.0;
            a[i] = a[i] * b[i];
            b[j] = a[j] - a[i];
            a[j] = b[j] + b[i];
            b[i] = a[i] * 0.5;
        }
    }
}
"""

# f and g share the (i) and (i, j) domains; both extents are unproven
# (m and k are parameters), and g has one more loop before them.
SHARED = """\
void f(double *a, int m, int k)
{
    for (int i = 2; i < m; i++) {
        a[i] = a[i] + 1.0;
        for (int j = 1; j < k; j++) {
            a[j] = a[j] * 2.0;
            a[i] = a[i] + a[j];
        }
        a[i] = a[i] - 1.0;
    }
}

void g(double *a, int m, int k, int p)
{
    for (int t = 0; t < p; t++)
        a[t] = 0.0;
    for (int i = 2; i < m; i++) {
        a[i] = a[i] * 3.0;
        for (int j = 1; j < k; j++) {
            a[j] = a[j] + a[i];
        }
    }
}
"""


@pytest.fixture
def counted(monkeypatch):
    """Every domain ``count_nest`` is called on, in call order."""
    domains = []
    real = mg.count_nest

    def counting(nest, *args, **kwargs):
        domains.append((tuple(nest.levels), tuple(nest.constraints)))
        return real(nest, *args, **kwargs)

    monkeypatch.setattr(mg, "count_nest", counting)
    return domains


def config() -> AnalysisConfig:
    return AnalysisConfig(use_cache=False)


def document(result) -> dict:
    doc = result.to_dict()
    doc.pop("stage_timings", None)
    return doc


def test_each_domain_of_a_triangular_nest_is_counted_once(counted):
    result = Pipeline(config()).run(TRIANGULAR)
    # the function body, the i loop and the i-j loop
    assert len(counted) == len(set(counted)) == 3
    assert [len(levels) for levels, _ in counted] == [0, 1, 2]
    stmts = [t for t in result.models["tri"].terms if t.desc == "stmt"]
    assert len(stmts) == 8
    assert len({t.count for t in stmts}) == 1


def test_shared_domain_replays_its_extents_into_each_function(counted):
    result = Pipeline(config()).run(SHARED)
    assert [str(e) for e in result.assumptions("f")] == \
        ["(m + -2)", "(k + -1)"]
    assert [str(e) for e in result.assumptions("g")] == \
        ["p", "(m + -2)", "(k + -1)"]
    # f counts (), (i), (i, j); g adds only (t)
    assert len(counted) == len(set(counted)) == 4


def test_concurrent_analyses_equal_the_serial_ones():
    names = sorted(available())[:8]
    serial = {n: document(Pipeline(config()).run(get_source(n),
                                                 filename=f"{n}.c"))
              for n in names}
    barrier = threading.Barrier(len(names), timeout=60)
    threaded, errors = {}, []

    def analyze(name):
        try:
            pipeline = Pipeline(config())
            barrier.wait()
            threaded[name] = document(
                pipeline.run(get_source(name), filename=f"{name}.c"))
        except Exception as exc:     # noqa: BLE001 - reported below
            errors.append((name, exc))

    threads = [threading.Thread(target=analyze, args=(n,)) for n in names]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert not errors
    assert threaded == serial


def test_a_second_generate_counts_again(counted):
    pipeline = Pipeline(config())
    state = pipeline.run_until("bridge", TRIANGULAR + SHARED)
    gen = mg.MetricGenerator(state.tu, state.bridges, pipeline.config.arch,
                             pipeline.config.gen_options())
    first = gen.generate()
    once = len(counted)
    second = gen.generate()
    # (), tri's (i) and (i, j), f's (i) and (i, j), g's (t)
    assert once == 6
    assert len(counted) == 2 * once
    assert counted[:once] == counted[once:]
    for q in first:
        assert [(t.line, t.col, t.count) for t in first[q].terms] == \
            [(t.line, t.col, t.count) for t in second[q].terms]
        assert first[q].assumptions == second[q].assumptions

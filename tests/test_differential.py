"""Differential test harness: independent implementations must agree exactly.

The suite has three pairs of independently implemented paths that are
required to be interchangeable:

* the branch-at-a-time reference replay
  (:func:`repro.predictors.simulate.simulate_reference`) vs the vectorized
  segmented-scan replay (:mod:`repro.predictors.vectorized`) — for every
  predictor kind in the zoo, not just bimodal/gshare;
* the online profiler (:class:`TwoDProfiler`, one ``record`` per branch)
  vs the batched ``record_batch`` path vs the offline bincount profiler
  (:func:`profile_trace`);
* ``simulate()``'s dispatch, which must pick the fast path only when it
  is exact, and must *fail loudly* instead of silently falling back when
  ``REPRO_REQUIRE_VECTORIZED`` is set.

Each replay pair is driven with seeded traces from several families
(mixed-random, bursty, phase-shifted, single-site, alias-heavy) and the
results are compared *exactly*: the per-branch correctness stream, the
per-site counts and accuracies, and the complete end-of-run predictor
state (:meth:`Predictor.state_dict`), so ``reset=False`` chains stay in
lockstep too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.profiler2d import ProfilerConfig, TwoDProfiler, profile_trace
from repro.errors import ExperimentError
from repro.predictors import (
    Bimodal,
    GAg,
    Gshare,
    LocalTwoLevel,
    LoopPredictor,
    Perceptron,
    Tage,
    Tournament,
    simulate,
    simulate_reference,
)
from repro.predictors.vectorized import try_simulate_vectorized
from repro.trace.trace import BranchTrace
from repro.trace.synthetic import (
    SiteSpec,
    bernoulli_site,
    interleave_sites,
    loop_site,
    pattern_site,
)

# ----------------------------------------------------------------------
# Trace families
# ----------------------------------------------------------------------


def random_trace(seed: int) -> BranchTrace:
    """A deterministic random trace mixing the site shapes real code has."""
    rng = np.random.default_rng(seed)
    num_sites = int(rng.integers(3, 32))
    streams: dict[int, np.ndarray] = {}
    for site in range(num_sites):
        kind = int(rng.integers(0, 4))
        n = int(rng.integers(20, 320))
        if kind == 0:
            spec = SiteSpec.stationary(float(rng.uniform(0.02, 0.98)))
            streams[site] = bernoulli_site(n, spec, seed * 1009 + site)
        elif kind == 1:
            spec = SiteSpec.two_phase(
                float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.5, 0.95))
            )
            streams[site] = bernoulli_site(n, spec, seed * 1009 + site)
        elif kind == 2:
            pattern = "".join(rng.choice(["T", "N"], size=int(rng.integers(2, 7))))
            streams[site] = pattern_site(pattern, max(1, n // len(pattern)))
        else:
            counts = [int(c) for c in rng.integers(1, 9, size=max(1, n // 4))]
            streams[site] = loop_site(counts)
        if streams[site].size == 0:
            streams[site] = np.ones(1, dtype=np.uint8)
    return interleave_sites(streams, seed=seed)


def bursty_trace(seed: int) -> BranchTrace:
    """Long same-direction runs: loop predictor and RLE-edge territory."""
    rng = np.random.default_rng(seed)
    num_sites = int(rng.integers(3, 10))
    streams: dict[int, np.ndarray] = {}
    for site in range(num_sites):
        runs = []
        direction = int(rng.integers(0, 2))
        total = 0
        while total < 300:
            length = int(rng.integers(1, 120))
            runs.append(np.full(length, direction, dtype=np.uint8))
            direction ^= 1
            total += length
        streams[site] = np.concatenate(runs)
    return interleave_sites(streams, seed=seed)


def phase_shifted_trace(seed: int) -> BranchTrace:
    """Every site flips bias mid-stream (the paper's phased behavior)."""
    rng = np.random.default_rng(seed)
    num_sites = int(rng.integers(3, 12))
    streams = {
        site: bernoulli_site(
            int(rng.integers(150, 500)),
            SiteSpec.two_phase(
                float(rng.uniform(0.0, 0.3)), float(rng.uniform(0.7, 1.0))
            ),
            seed * 31 + site,
        )
        for site in range(num_sites)
    }
    return interleave_sites(streams, seed=seed)


def single_site_trace(seed: int) -> BranchTrace:
    """One hot site among many cold ones: degenerate segment layouts."""
    rng = np.random.default_rng(seed)
    num_sites = int(rng.integers(2, 24))
    site = int(rng.integers(0, num_sites))
    n = int(rng.integers(300, 1200))
    outcomes = (rng.random(n) < float(rng.uniform(0.1, 0.9))).astype(np.uint8)
    return BranchTrace(
        program="<family>",
        input_name=f"single-site-{seed}",
        num_sites=num_sites,
        sites=np.full(n, site, dtype=np.int32),
        outcomes=outcomes,
    )


def alias_heavy_trace(seed: int) -> BranchTrace:
    """Far more sites than tiny tables have entries: index collisions."""
    rng = np.random.default_rng(seed)
    num_sites = int(rng.integers(40, 96))
    n = int(rng.integers(1200, 2600))
    sites = rng.integers(0, num_sites, size=n).astype(np.int32)
    biases = rng.uniform(0.05, 0.95, size=num_sites)
    outcomes = (rng.random(n) < biases[sites]).astype(np.uint8)
    return BranchTrace(
        program="<family>",
        input_name=f"alias-heavy-{seed}",
        num_sites=num_sites,
        sites=sites,
        outcomes=outcomes,
    )


TRACE_FAMILIES = {
    "random": random_trace,
    "bursty": bursty_trace,
    "phase-shifted": phase_shifted_trace,
    "single-site": single_site_trace,
    "alias-heavy": alias_heavy_trace,
}


# ----------------------------------------------------------------------
# Predictor zoo
# ----------------------------------------------------------------------

#: Every kind with a vectorized kernel, in a tiny (alias-prone) and a
#: realistic configuration.  Tiny tables are where index bugs hide.
PREDICTOR_CONFIGS = [
    ("bimodal-tiny", lambda: Bimodal(table_bits=2)),
    ("bimodal-paper", lambda: Bimodal()),
    ("gshare-tiny", lambda: Gshare(history_bits=3)),
    ("gshare-wide-table", lambda: Gshare(history_bits=4, table_bits=6)),
    ("gshare-paper", lambda: Gshare(history_bits=14)),
    ("gag-tiny", lambda: GAg(history_bits=4)),
    ("gag", lambda: GAg(history_bits=12)),
    ("local-tiny", lambda: LocalTwoLevel(history_bits=3, num_histories=4)),
    ("local", lambda: LocalTwoLevel(history_bits=10, num_histories=64)),
    ("tournament-tiny", lambda: Tournament(history_bits=3, chooser_bits=4)),
    ("tournament", lambda: Tournament(history_bits=8, chooser_bits=8)),
    ("loop-tiny", lambda: LoopPredictor(num_entries=8)),
    ("loop", lambda: LoopPredictor(num_entries=64, confidence_threshold=3)),
    ("perceptron-tiny", lambda: Perceptron(num_entries=16, history_bits=8)),
    ("perceptron-paper", lambda: Perceptron()),
    # 3-bit weights saturate on every trace family, so the clamp path runs.
    ("perceptron-saturating", lambda: Perceptron(num_entries=4, history_bits=8,
                                                 weight_bits=3)),
    ("tage-tiny", lambda: Tage(num_tables=3, table_bits=4, tag_bits=5,
                               min_history=2, max_history=12)),
    ("tage", lambda: Tage()),
]

_CONFIG_IDS = [name for name, _ in PREDICTOR_CONFIGS]


def _assert_state_equal(ref_state, vec_state, path: str = "state") -> None:
    """Recursive exact equality over state_dict values (arrays included)."""
    assert type(ref_state) is type(vec_state), f"{path}: type mismatch"
    if isinstance(ref_state, dict):
        assert ref_state.keys() == vec_state.keys(), f"{path}: key mismatch"
        for key in ref_state:
            _assert_state_equal(ref_state[key], vec_state[key], f"{path}.{key}")
    elif isinstance(ref_state, (list, tuple)):
        assert len(ref_state) == len(vec_state), f"{path}: length mismatch"
        for i, (a, b) in enumerate(zip(ref_state, vec_state)):
            _assert_state_equal(a, b, f"{path}[{i}]")
    elif isinstance(ref_state, np.ndarray):
        assert ref_state.dtype == vec_state.dtype, f"{path}: dtype mismatch"
        np.testing.assert_array_equal(ref_state, vec_state, err_msg=path)
    else:
        assert ref_state == vec_state, f"{path}: {ref_state!r} != {vec_state!r}"


def _assert_sim_equal(ref, vec) -> None:
    np.testing.assert_array_equal(ref.correct, vec.correct)
    np.testing.assert_array_equal(ref.exec_counts, vec.exec_counts)
    np.testing.assert_array_equal(ref.correct_counts, vec.correct_counts)
    assert ref.predictor_name == vec.predictor_name
    assert ref.num_sites == vec.num_sites
    # Exact counts imply exact accuracies, but assert the derived view
    # too: it is the API the profilers and experiments consume.
    assert ref.site_accuracies() == vec.site_accuracies()


# ----------------------------------------------------------------------
# Reference replay vs vectorized replay
# ----------------------------------------------------------------------


@pytest.mark.parametrize("family", sorted(TRACE_FAMILIES), ids=str)
@pytest.mark.parametrize("config_index", range(len(PREDICTOR_CONFIGS)), ids=_CONFIG_IDS)
def test_vectorized_matches_reference(config_index: int, family: str):
    name, factory = PREDICTOR_CONFIGS[config_index]
    make_trace = TRACE_FAMILIES[family]
    for seed in range(3):
        trace = make_trace(config_index * 1000 + seed)
        ref_pred, vec_pred = factory(), factory()
        ref = simulate_reference(ref_pred, trace)
        vec = try_simulate_vectorized(vec_pred, trace)
        assert vec is not None, f"{name} should take the vectorized path"
        _assert_sim_equal(ref, vec)
        # End-of-run predictor state must match so chained replays agree.
        _assert_state_equal(
            ref_pred.state_dict(), vec_pred.state_dict(), f"{name}/seed{seed}"
        )


@pytest.mark.parametrize("config_index", range(len(PREDICTOR_CONFIGS)), ids=_CONFIG_IDS)
def test_vectorized_matches_reference_chained(config_index: int):
    """reset=False chaining across trace fragments stays exact per kind."""
    name, factory = PREDICTOR_CONFIGS[config_index]
    for seed in (901, 902):
        trace = random_trace(seed)
        cut = len(trace) // 3
        parts = [(0, cut), (cut, 2 * cut), (2 * cut, len(trace))]
        ref_pred, vec_pred = factory(), factory()
        ref_pred.reset()
        vec_pred.reset()
        for start, stop in parts:
            fragment = trace.slice_view(start, stop)
            ref = simulate_reference(ref_pred, fragment, reset=False)
            vec = try_simulate_vectorized(vec_pred, fragment, reset=False)
            assert vec is not None, f"{name} refused a warm-start fragment"
            _assert_sim_equal(ref, vec)
            _assert_state_equal(
                ref_pred.state_dict(), vec_pred.state_dict(),
                f"{name}/seed{seed}/{start}:{stop}",
            )


def test_vectorized_adversarial_streams():
    """Saturating and alternating streams exercise the constant-retirement
    optimization's edge cases (instant collapse vs never collapsing)."""
    n = 4000
    for stream_name, outcomes in [
        ("all-taken", np.ones(n, dtype=np.uint8)),
        ("all-not-taken", np.zeros(n, dtype=np.uint8)),
        ("alternating", (np.arange(n) & 1).astype(np.uint8)),
    ]:
        sites = (np.arange(n) % 7).astype(np.int32)
        trace = BranchTrace(
            program="<adversarial>", input_name=stream_name, num_sites=7,
            sites=sites, outcomes=outcomes,
        )
        for name, factory in PREDICTOR_CONFIGS:
            ref_pred, vec_pred = factory(), factory()
            ref = simulate_reference(ref_pred, trace)
            vec = try_simulate_vectorized(vec_pred, trace)
            assert vec is not None, f"{name} on {stream_name}"
            _assert_sim_equal(ref, vec)
            _assert_state_equal(
                ref_pred.state_dict(), vec_pred.state_dict(),
                f"{name}/{stream_name}",
            )


def test_perceptron_saturating_config_reaches_bounds():
    """The saturating config must keep driving weights to their bounds, or
    the differential runs above stop covering the clamp."""
    factory = dict(PREDICTOR_CONFIGS)["perceptron-saturating"]
    reached = set()
    for family, make_trace in sorted(TRACE_FAMILIES.items()):
        predictor = factory()
        simulate_reference(predictor, make_trace(7))
        at_bound = {bound for bound in (predictor.weight_min, predictor.weight_max)
                    if (predictor.weights == bound).any()}
        assert at_bound, f"{family}: no weight ended at a bound"
        reached |= at_bound
    assert reached == {predictor.weight_min, predictor.weight_max}


def test_perceptron_train_events_counted():
    """The replay span and counter report how many branches trained,
    matching a stepping loop that applies the perceptron's training rule."""
    from repro.obs import get_registry, get_tracer, set_registry
    from repro.obs.metrics import Registry

    trace = alias_heavy_trace(31)
    stepper = Perceptron(num_entries=16, history_bits=8)
    expected = 0
    for site, taken in zip(trace.sites.tolist(), trace.outcomes.tolist()):
        row = stepper.weights[site % stepper.num_entries]
        y = int(row[0]) + int(np.dot(row[1:], stepper.history))
        expected += (y >= 0) != taken or abs(y) <= stepper.theta
        stepper.predict_and_update(site, taken)
    assert 0 < expected < len(trace)

    tracer = get_tracer()
    previous_registry = set_registry(Registry())
    tracer.clear()
    tracer.configure(enabled=True)
    try:
        assert try_simulate_vectorized(
            Perceptron(num_entries=16, history_bits=8), trace) is not None
        spans = [e for e in tracer.events() if e["name"] == "replay.vectorized"]
        counter = get_registry().counter("replay_train_events_total")
        assert counter.labels(kind="Perceptron").value == expected
    finally:
        tracer.configure(enabled=False)
        tracer.clear()
        set_registry(previous_registry)
    assert [span["args"]["train_events"] for span in spans] == [expected]


def test_vectorized_empty_trace():
    trace = BranchTrace(
        program="<empty>", input_name="none", num_sites=4,
        sites=np.zeros(0, dtype=np.int32), outcomes=np.zeros(0, dtype=np.uint8),
    )
    for name, factory in PREDICTOR_CONFIGS:
        ref_pred, vec_pred = factory(), factory()
        ref = simulate_reference(ref_pred, trace)
        vec = try_simulate_vectorized(vec_pred, trace)
        assert vec is not None, name
        _assert_sim_equal(ref, vec)
        _assert_state_equal(ref_pred.state_dict(), vec_pred.state_dict(), name)


# ----------------------------------------------------------------------
# Dispatch exactness and the REPRO_REQUIRE_VECTORIZED contract
# ----------------------------------------------------------------------


def test_simulate_dispatch_only_when_exact():
    """simulate() takes the fast path only for exact stock types."""

    class TweakedBimodal(Bimodal):
        """A subclass may change the update rule; must NOT be vectorized."""

    class TweakedPerceptron(Perceptron):
        """Same story for every other kind with a kernel."""

    trace = random_trace(77)
    assert try_simulate_vectorized(TweakedBimodal(), trace) is None
    assert (
        try_simulate_vectorized(TweakedPerceptron(num_entries=16, history_bits=8), trace)
        is None
    )

    # Dispatch agrees with both explicit paths.
    for factory in (lambda: Gshare(history_bits=6),
                    lambda: Perceptron(num_entries=16, history_bits=8)):
        auto = simulate(factory(), trace)
        forced_ref = simulate(factory(), trace, vectorize=False)
        _assert_sim_equal(forced_ref, auto)


def test_require_vectorized_env(monkeypatch):
    trace = random_trace(42)

    # "1" requires every default kind; all of them satisfy it.
    monkeypatch.setenv("REPRO_REQUIRE_VECTORIZED", "1")
    for name, factory in PREDICTOR_CONFIGS:
        simulate(factory(), trace)

    # Subclasses are not stock kinds: the requirement does not apply.
    class TweakedBimodal(Bimodal):
        pass

    simulate(TweakedBimodal(), trace)

    # Force the kernel to refuse: required kinds must now fail loudly.
    monkeypatch.setattr(
        "repro.predictors.vectorized.try_simulate_vectorized",
        lambda predictor, trace, reset=True: None,
    )
    with pytest.raises(ExperimentError, match="fell back"):
        simulate(Gshare(history_bits=6), trace)
    # ... but TAGE is only requirable by name, not required by "1".
    simulate(Tage(num_tables=2, table_bits=4), trace)

    # A comma list requires exactly the named kinds.
    monkeypatch.setenv("REPRO_REQUIRE_VECTORIZED", "gshare,tage")
    simulate(Bimodal(table_bits=4), trace)
    with pytest.raises(ExperimentError, match="fell back"):
        simulate(Gshare(history_bits=6), trace)
    with pytest.raises(ExperimentError, match="fell back"):
        simulate(Tage(num_tables=2, table_bits=4), trace)

    # Unknown kind names are a configuration error, not a silent no-op.
    monkeypatch.setenv("REPRO_REQUIRE_VECTORIZED", "nosuchkind")
    with pytest.raises(ExperimentError, match="unknown kinds"):
        simulate(Gshare(history_bits=6), trace)

    # "0"/unset requires nothing.
    monkeypatch.setenv("REPRO_REQUIRE_VECTORIZED", "0")
    simulate(Gshare(history_bits=6), trace)
    monkeypatch.delenv("REPRO_REQUIRE_VECTORIZED")
    simulate(Gshare(history_bits=6), trace)


# ----------------------------------------------------------------------
# Online profiler vs batched profiler vs offline profiler
# ----------------------------------------------------------------------

PROFILER_CONFIGS = [
    ProfilerConfig(slice_size=100),
    ProfilerConfig(slice_size=230),
    ProfilerConfig(slice_size=100, use_fir=False),
]


@pytest.mark.parametrize("config_index", range(len(PROFILER_CONFIGS)))
@pytest.mark.parametrize("seed_base", [0, 10, 20])
def test_online_matches_offline(config_index: int, seed_base: int):
    config = PROFILER_CONFIGS[config_index]
    for seed in range(seed_base, seed_base + 10):
        trace = random_trace(5000 + seed)
        sim = simulate(Gshare(history_bits=8), trace)

        online = TwoDProfiler(trace.num_sites, config)
        for site, correct in zip(trace.sites.tolist(), sim.correct.tolist()):
            online.record(site, correct)
        online_report = online.finish()

        offline_report = profile_trace(trace, simulation=sim, config=config)

        assert online_report.overall_accuracy == pytest.approx(
            offline_report.overall_accuracy, abs=1e-12
        )
        for site in range(trace.num_sites):
            a = online_report.stats[site]
            b = offline_report.stats[site]
            assert a.N == b.N, f"seed {seed} site {site}"
            assert a.NPAM == b.NPAM, f"seed {seed} site {site}"
            assert a.has_lpa == b.has_lpa, f"seed {seed} site {site}"
            assert a.SPA == pytest.approx(b.SPA, abs=1e-12), f"seed {seed} site {site}"
            assert a.SSPA == pytest.approx(b.SSPA, abs=1e-12), f"seed {seed} site {site}"
            assert a.LPA == pytest.approx(b.LPA, abs=1e-12), f"seed {seed} site {site}"

        assert online_report.profiled_sites() == offline_report.profiled_sites()
        assert (
            online_report.input_dependent_sites()
            == offline_report.input_dependent_sites()
        ), f"seed {seed}: verdict sets diverge"


def test_record_batch_matches_record_loop():
    """The whole-slice bincount fast path is bit-identical to record()."""
    for seed, slice_size in [(321, 97), (322, 100), (323, 64)]:
        trace = random_trace(seed)
        sim = simulate(Gshare(history_bits=8), trace)
        config = ProfilerConfig(slice_size=slice_size)

        looped = TwoDProfiler(trace.num_sites, config)
        for site, correct in zip(trace.sites.tolist(), sim.correct.tolist()):
            looped.record(site, correct)

        batched = TwoDProfiler(trace.num_sites, config)
        # Irregular batch sizes: partial-slice prefixes, spans of several
        # whole slices, and tails all get exercised.
        cuts = [0, 1, 8, 8 + slice_size * 3 + 5, len(trace)]
        cuts = sorted(set(min(c, len(trace)) for c in cuts))
        for start, stop in zip(cuts, cuts[1:]):
            batched.record_batch(trace.sites[start:stop], sim.correct[start:stop])

        a, b = looped.state_dict(), batched.state_dict()
        assert a.keys() == b.keys()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key], err_msg=key)


def test_three_way_agreement_on_real_workload(tiny_runner):
    """Reference sim, vectorized sim and both profilers agree end to end on
    a real compiled-workload trace, not just synthetic streams."""
    trace = tiny_runner.trace("gzipish", "train")
    ref = simulate(Gshare(history_bits=14), trace, vectorize=False)
    vec = simulate(Gshare(history_bits=14), trace)
    _assert_sim_equal(ref, vec)

    config = ProfilerConfig(slice_size=max(500, len(trace) // 40))
    online = TwoDProfiler(trace.num_sites, config)
    for site, correct in zip(trace.sites.tolist(), vec.correct.tolist()):
        online.record(site, correct)
    online_report = online.finish()
    offline_report = profile_trace(trace, simulation=vec, config=config)
    assert online_report.input_dependent_sites() == offline_report.input_dependent_sites()
    assert online_report.profiled_sites() == offline_report.profiled_sites()

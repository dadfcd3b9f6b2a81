"""The fault-injection framework and retry/backoff machinery.

Covers: plan parsing and arming, deterministic scheduling (hit lists,
seeded probability, seeded corruption), every action's semantics (kill is
asserted on a real child process), obs accounting, the retry policy's
determinism/monotonicity/cap properties (hypothesis), and the supervised
process pool returning serial-identical results under arbitrary injected
worker-death patterns (hypothesis).
"""

import multiprocessing
import os
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faults, obs
from repro.faults import (
    FaultError,
    FaultPlan,
    InjectedDrop,
    InjectedFault,
    NO_RETRY,
    RetryPolicy,
)
from repro.parallel import WorkerFailure, parallel_map

#: Chaos runs re-execute this suite under several seeds (CI matrix).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


@pytest.fixture(autouse=True)
def _disarmed():
    """Never leak an armed plan (or stray env arming) into another test."""
    previous = faults.active_plan()
    faults.disarm()
    yield
    if previous is not None:
        faults.arm(previous)
    else:
        faults.disarm()


# -- parsing ---------------------------------------------------------------------------


class TestParsing:
    def test_round_trip(self):
        spec = "serve.read_frame=drop@1,3;parallel.job=kill:7;x=delay:0.5%0.25"
        plan = FaultPlan.parse(spec, seed=CHAOS_SEED)
        assert plan.spec() == spec
        assert plan.seed == CHAOS_SEED
        assert [r.action for r in plan.rules] == ["drop", "kill", "delay"]
        assert plan.rules[0].hits == frozenset({1, 3})
        assert plan.rules[1].exit_code == 7
        assert plan.rules[2].probability == 0.25
        assert plan.rules[2].delay_s == 0.5

    def test_env_form(self):
        plan = FaultPlan.from_env("17:a=raise@2")
        assert plan.seed == 17 and plan.rules[0].hits == frozenset({2})

    @pytest.mark.parametrize(
        "bad",
        [
            "a",                    # no '='
            "a=explode",            # unknown action
            "a=raise@zero",         # non-integer hits
            "a=raise@",             # empty hit list
            "a=raise%much",         # non-float probability
            "a=raise%1.5",          # probability out of range
            "a=delay:soon",         # non-numeric delay
            "a=raise:unregistered", # unknown exception token
            "",                     # no rules at all
        ],
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(FaultError):
            FaultPlan.parse(bad)

    def test_env_needs_seed_prefix(self):
        with pytest.raises(FaultError):
            FaultPlan.from_env("a=raise")
        with pytest.raises(FaultError):
            FaultPlan.from_env("notanint:a=raise")

    def test_arm_from_env(self):
        plan = faults.arm_from_env({"REPRO_FAULTS": "5:x=drop"})
        assert faults.active_plan() is plan and plan.seed == 5
        assert faults.arm_from_env({}) is None  # unset leaves arming alone


# -- sites and actions -----------------------------------------------------------------


class TestSites:
    def test_disarmed_site_is_identity(self):
        payload = b"untouched"
        assert faults.site("anything", payload) is payload
        assert faults.site("anything") is None

    def test_raise_on_scheduled_hits_only(self):
        plan = FaultPlan.parse("a.b=raise@2", seed=CHAOS_SEED)
        with faults.armed(plan):
            faults.site("a.b")  # hit 1: pass
            with pytest.raises(InjectedFault, match="a.b"):
                faults.site("a.b")  # hit 2: fire
            faults.site("a.b")  # hit 3: pass again
        assert plan.hit_counts() == [3]
        assert plan.injected_counts() == [1]

    def test_prefix_glob_matches_site_family(self):
        plan = FaultPlan.parse("serve.*=raise@1,2")
        with faults.armed(plan):
            with pytest.raises(InjectedFault):
                faults.site("serve.read_frame")
            with pytest.raises(InjectedFault):
                faults.site("serve.dispatch")
            faults.site("registry.publish.link")  # unmatched family
        assert plan.hit_counts() == [2]

    def test_drop_is_a_connection_error(self):
        plan = FaultPlan.parse("sock=drop")
        with faults.armed(plan), pytest.raises(ConnectionError):
            faults.site("sock")
        with faults.armed(plan), pytest.raises(InjectedDrop):
            faults.site("sock")

    def test_delay_sleeps(self):
        plan = FaultPlan.parse("slow=delay:0.05@1")
        with faults.armed(plan):
            start = time.perf_counter()
            faults.site("slow")
            assert time.perf_counter() - start >= 0.04

    def test_corrupt_is_deterministic_per_seed(self):
        payload = b"a length-prefixed frame body of reasonable size"
        plan = FaultPlan.parse("wire=corrupt", seed=CHAOS_SEED)
        with faults.armed(plan):
            first = faults.site("wire", payload)
        plan.reset()
        with faults.armed(plan):
            again = faults.site("wire", payload)
        other = FaultPlan.parse("wire=corrupt", seed=CHAOS_SEED + 1)
        with faults.armed(other):
            different = faults.site("wire", payload)
        assert first == again != payload
        assert len(first) == len(payload)  # flips bytes, never reframes
        assert different != first

    def test_probability_sequence_is_seeded(self):
        def firing_pattern(plan):
            with faults.armed(plan):
                return [plan.decide("p") is not None for _ in range(64)]

        base = firing_pattern(FaultPlan.parse("p=raise%0.3", seed=CHAOS_SEED))
        same = firing_pattern(FaultPlan.parse("p=raise%0.3", seed=CHAOS_SEED))
        other = firing_pattern(FaultPlan.parse("p=raise%0.3", seed=CHAOS_SEED + 9))
        assert base == same
        assert base != other
        assert 2 <= sum(base) <= 40  # roughly the asked-for rate

    def test_registered_exception_tokens(self):
        from repro.serve.batching import QueueFullError

        plan = FaultPlan.parse("q=raise:queue_full@1")
        with faults.armed(plan), pytest.raises(QueueFullError):
            faults.site("q")

    def test_obs_counters_record_injections(self):
        obs.reset()
        plan = FaultPlan.parse("counted=raise@1")
        with faults.armed(plan), pytest.raises(InjectedFault):
            faults.site("counted")
        counters = obs.snapshot()["counters"]
        assert counters["faults.injected"] == 1
        assert counters["faults.counted"] == 1
        assert counters["faults.action.raise"] == 1


def _hit_kill_site():
    faults.site("worker.doom")


class TestKill:
    def test_kill_exits_the_process_uncatchably(self):
        plan = FaultPlan.parse("worker.doom=kill:7@1", seed=CHAOS_SEED)
        with faults.armed(plan):
            child = multiprocessing.Process(target=_hit_kill_site)
            child.start()
            child.join(10)
        assert child.exitcode == 7
        # The shared hit counter advanced in the *child*: schedules are
        # process-global, which is what makes `kill@1` mean one death
        # total rather than one death per worker.
        assert plan.hit_counts() == [1]
        assert plan.injected_counts() == [1]


# -- retry policy ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_schedule_deterministic_per_seed(self):
        a = RetryPolicy(seed=CHAOS_SEED).schedule()
        b = RetryPolicy(seed=CHAOS_SEED).schedule()
        c = RetryPolicy(seed=CHAOS_SEED + 1).schedule()
        assert a == b
        assert a != c

    def test_call_retries_then_succeeds(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ConnectionError("nope")
            return "finally"

        policy = RetryPolicy(max_attempts=4, base_delay_s=0.001, seed=CHAOS_SEED)
        assert policy.call(flaky) == "finally"
        assert len(attempts) == 3

    def test_call_gives_up_after_max_attempts(self):
        attempts = []

        def always_down():
            attempts.append(1)
            raise ConnectionError("still down")

        policy = RetryPolicy(max_attempts=3, base_delay_s=0.001, seed=CHAOS_SEED)
        with pytest.raises(ConnectionError):
            policy.call(always_down)
        assert len(attempts) == 3

    def test_no_retry_is_single_shot(self):
        attempts = []

        def boom():
            attempts.append(1)
            raise ConnectionError("x")

        with pytest.raises(ConnectionError):
            NO_RETRY.call(boom)
        assert len(attempts) == 1

    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)


class TestRetryPolicyDerive:
    """The per-request jitter derivation ServeClient relies on (DESIGN.md §8)."""

    def test_same_salt_same_schedule(self):
        policy = RetryPolicy(seed=CHAOS_SEED)
        assert policy.derive("req-1").seed == policy.derive("req-1").seed
        assert policy.derive("req-1").schedule() == policy.derive("req-1").schedule()

    def test_different_salts_decorrelate(self):
        policy = RetryPolicy(seed=CHAOS_SEED)
        assert policy.derive(1).seed != policy.derive(2).seed
        assert policy.derive(1).schedule() != policy.derive(2).schedule()

    def test_derived_seed_is_a_pure_function(self):
        """sha256("<seed>:<salt>")[:8] — stable across processes and shard
        reconnects, so a retried request keeps its schedule wherever it
        lands."""
        import hashlib

        expected = int.from_bytes(
            hashlib.sha256(b"7:42").digest()[:8], "big"
        )
        assert RetryPolicy(seed=7).derive(42).seed == expected

    def test_derive_changes_only_the_seed(self):
        policy = RetryPolicy(
            seed=CHAOS_SEED, max_attempts=7, base_delay_s=0.123, jitter=0.3
        )
        derived = policy.derive("salt")
        assert derived.max_attempts == policy.max_attempts
        assert derived.base_delay_s == policy.base_delay_s
        assert derived.jitter == policy.jitter
        assert derived.seed != policy.seed

    def test_request_sequence_replays_identically(self):
        """Two clients with the same base policy that issue the same
        request history derive identical backoff schedules, request for
        request — the fleet-level determinism contract."""
        policy_a = RetryPolicy(seed=CHAOS_SEED)
        policy_b = RetryPolicy(seed=CHAOS_SEED)
        schedule_a = [policy_a.derive(seq).schedule() for seq in range(1, 6)]
        schedule_b = [policy_b.derive(seq).schedule() for seq in range(1, 6)]
        assert schedule_a == schedule_b
        assert len({tuple(s) for s in schedule_a}) == 5  # decorrelated


@given(
    seed=st.integers(0, 2**31),
    max_attempts=st.integers(2, 12),
    base=st.floats(0.001, 0.5),
    multiplier=st.floats(1.0, 4.0),
    cap=st.floats(0.001, 5.0),
    jitter=st.floats(0.0, 0.5),
)
@settings(max_examples=60, deadline=None)
def test_backoff_properties(seed, max_attempts, base, multiplier, cap, jitter):
    """Deterministic per seed; base schedule monotone non-decreasing and
    capped; jitter perturbs by at most the configured fraction."""
    policy = RetryPolicy(
        max_attempts=max_attempts,
        base_delay_s=base,
        multiplier=multiplier,
        max_delay_s=cap,
        jitter=jitter,
        seed=seed,
    )
    assert policy.schedule() == policy.schedule()  # pure function of config

    bases = [policy.base_backoff_s(f) for f in range(1, max_attempts)]
    assert all(a <= b for a, b in zip(bases, bases[1:]))  # monotone
    assert all(b <= cap for b in bases)  # capped

    for failure, delay in enumerate(policy.schedule(), start=1):
        b = policy.base_backoff_s(failure)
        assert b * (1 - jitter) - 1e-12 <= delay <= b * (1 + jitter) + 1e-12
        assert delay >= 0.0


# -- supervised parallelism under worker death -----------------------------------------


def _cube(x):
    return x**3


@given(deaths=st.sets(st.integers(1, 10), max_size=3))
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_supervised_map_identical_under_any_death_pattern(deaths):
    """Any pattern of killed workers yields the serial path's results."""
    items = list(range(8))
    expected = [_cube(i) for i in items]
    if deaths:
        hits = ",".join(str(h) for h in sorted(deaths))
        plan = FaultPlan.parse(f"parallel.job=kill@{hits}", seed=CHAOS_SEED)
    else:
        plan = None
    try:
        if plan is not None:
            faults.arm(plan)
        out = parallel_map(
            _cube,
            items,
            n_workers=3,
            supervised=True,
            max_attempts=len(deaths) + 2,
        )
    finally:
        faults.disarm()
    assert out == expected
    if plan is not None:
        assert sum(plan.injected_counts()) == len(
            [h for h in deaths if h <= max(plan.hit_counts())]
        )


def _record_and_double(x):
    obs.counter("supervised.jobs").inc()
    obs.histogram("supervised.values", (2, 4, 8, 16)).observe(x)
    return 2 * x


class TestSupervisedMetrics:
    def test_metrics_merge_identical_to_serial_despite_deaths(self):
        items = list(range(9))
        obs.reset()
        serial = parallel_map(_record_and_double, items, n_workers=1)
        serial_snapshot = obs.snapshot()

        obs.reset()
        plan = FaultPlan.parse("parallel.job=kill@2", seed=CHAOS_SEED)
        with faults.armed(plan):
            survived = parallel_map(
                _record_and_double,
                items,
                n_workers=3,
                supervised=True,
            )
        chaos_snapshot = obs.snapshot()
        assert survived == serial
        assert (
            chaos_snapshot["counters"]["supervised.jobs"]
            == serial_snapshot["counters"]["supervised.jobs"]
        )
        assert (
            chaos_snapshot["histograms"]["supervised.values"]
            == serial_snapshot["histograms"]["supervised.values"]
        )
        # The supervisor recorded what it survived.
        assert chaos_snapshot["counters"]["parallel.worker_deaths"] >= 1
        assert chaos_snapshot["counters"]["parallel.resubmissions"] >= 1

    def test_gives_up_after_attempt_budget(self):
        plan = FaultPlan.parse("parallel.job=kill")  # every job dies, forever
        with faults.armed(plan), pytest.raises(WorkerFailure):
            parallel_map(
                _cube, list(range(4)), n_workers=2, supervised=True, max_attempts=2
            )

    def test_job_exceptions_propagate_not_retried(self):
        plan = FaultPlan.parse("parallel.job=raise@1")
        with faults.armed(plan), pytest.raises(InjectedFault):
            parallel_map(_cube, list(range(4)), n_workers=2, supervised=True)

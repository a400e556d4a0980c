"""Unit and property tests for the pluggable channel-metric registry.

The hypothesis blocks check the metric axioms (non-negativity, identity on
equal channels, symmetry) over random single-qubit noise channels, and the
bit-identity contract: routing the diamond norm through the registry must
produce the exact floats of the legacy :func:`repro.sdp.diamond_distance`
call, dual certificate included.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SDPConfig
from repro.errors import MetricError
from repro.metrics import (
    TIER_CERTIFIED,
    TIER_EXACT,
    TIER_HEURISTIC,
    ChannelMetric,
    MetricValue,
    get_metric,
    metric_capabilities,
    register_metric,
    registered_metrics,
)
from repro.noise.channels import (
    amplitude_damping,
    bit_flip,
    depolarizing,
    identity_noise,
    phase_flip,
)
from repro.sdp.certificates import verify_certificate
from repro.sdp.diamond import diamond_distance

FAST_SDP = SDPConfig(max_iterations=400, tolerance=1e-5)

_CONSTRUCTORS = [bit_flip, phase_flip, depolarizing, amplitude_damping]


@st.composite
def noise_channels(draw):
    """A random single-qubit noise channel with a visible error rate."""
    constructor = draw(st.sampled_from(_CONSTRUCTORS))
    p = draw(st.floats(min_value=0.0, max_value=0.3, allow_nan=False))
    return constructor(p)


METRIC_NAMES = ["diamond_norm", "trace_norm", "process_fidelity"]


class TestMetricAxioms:
    @settings(max_examples=15, deadline=None)
    @given(channel_a=noise_channels(), channel_b=noise_channels())
    @pytest.mark.parametrize("name", METRIC_NAMES)
    def test_non_negative(self, name, channel_a, channel_b):
        value = get_metric(name).compute(channel_a, channel_b, config=FAST_SDP)
        assert value.value >= 0.0

    @settings(max_examples=15, deadline=None)
    @given(channel=noise_channels())
    @pytest.mark.parametrize("name", METRIC_NAMES)
    def test_identical_channels_measure_zero(self, name, channel):
        value = get_metric(name).compute(channel, channel, config=FAST_SDP)
        assert value.value == 0.0

    @settings(max_examples=15, deadline=None)
    @given(channel_a=noise_channels(), channel_b=noise_channels())
    @pytest.mark.parametrize("name", METRIC_NAMES)
    def test_symmetric(self, name, channel_a, channel_b):
        metric = get_metric(name)
        forward = metric.compute(channel_a, channel_b, config=FAST_SDP).value
        backward = metric.compute(channel_b, channel_a, config=FAST_SDP).value
        assert math.isclose(forward, backward, rel_tol=1e-4, abs_tol=1e-7)

    def test_process_fidelity_symmetric_on_rank_deficient_choi_states(self):
        """Amplitude damping has rank-2 Choi states of dimension 4."""
        metric = get_metric("process_fidelity")
        channel_a, channel_b = amplitude_damping(0.25), amplitude_damping(0.253906)
        forward = metric.compute(channel_a, channel_b).value
        backward = metric.compute(channel_b, channel_a).value
        assert abs(forward - backward) <= 1e-12

    def test_arity_mismatch_is_structured(self):
        with pytest.raises(MetricError):
            get_metric("trace_norm").compute(bit_flip(0.1), identity_noise(2))


class TestDiamondNormBitIdentity:
    @settings(max_examples=10, deadline=None)
    @given(channel_a=noise_channels(), channel_b=noise_channels())
    def test_registry_matches_legacy_path(self, channel_a, channel_b):
        """The registry adds dispatch, never arithmetic: exact same floats."""
        via_registry = get_metric("diamond_norm").compute(
            channel_a, channel_b, config=FAST_SDP
        )
        legacy = diamond_distance(channel_a, channel_b, config=FAST_SDP)
        assert via_registry.value == legacy.value
        assert via_registry.tier == TIER_CERTIFIED

    def test_certificate_verifies(self):
        value = get_metric("diamond_norm").compute(
            bit_flip(1e-3), identity_noise(1), config=FAST_SDP
        )
        assert value.bound is not None and value.bound.certificate is not None
        assert verify_certificate(
            value.bound.certificate, value.bound.choi, tolerance=1e-6
        )
        assert get_metric("diamond_norm").certify(value)

    def test_certify_rejects_valueless_bound(self):
        bare = MetricValue(metric="diamond_norm", value=0.0, tier=TIER_CERTIFIED)
        assert not get_metric("diamond_norm").certify(bare)


class TestRegistry:
    def test_lookup_unknown_name_lists_registered(self):
        with pytest.raises(MetricError) as excinfo:
            get_metric("no_such_metric")
        assert "diamond_norm" in str(excinfo.value)

    def test_capabilities_cover_the_builtin_tiers(self):
        capabilities = {entry["name"]: entry for entry in metric_capabilities()}
        assert len(capabilities) >= 3
        assert capabilities["diamond_norm"]["tier"] == TIER_CERTIFIED
        assert capabilities["trace_norm"]["tier"] == TIER_EXACT
        assert capabilities["process_fidelity"]["tier"] == TIER_HEURISTIC
        assert capabilities["bound_drift"]["kind"] == "program"

    def test_registered_metrics_sorted_snapshot(self):
        snapshot = registered_metrics()
        names = list(snapshot)
        assert names == sorted(names)
        assert {"diamond_norm", "trace_norm", "process_fidelity"} <= set(names)
        assert all(isinstance(metric, ChannelMetric) for metric in snapshot.values())

    def test_reregistering_same_class_is_idempotent(self):
        cls = type(get_metric("trace_norm"))
        register_metric(cls)
        assert get_metric("trace_norm") is get_metric("trace_norm")

    def test_name_collision_between_classes_is_rejected(self):
        class Impostor(ChannelMetric):
            name = "diamond_norm"
            tier = TIER_HEURISTIC

            def compute(self, channel_a, channel_b, *, config=None):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(MetricError):
            register_metric(Impostor)

    def test_abstract_or_untier_registration_is_rejected(self):
        class Nameless(ChannelMetric):
            def compute(self, channel_a, channel_b, *, config=None):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(MetricError):
            register_metric(Nameless)

        class BadTier(ChannelMetric):
            name = "bad_tier_metric"
            tier = "vibes"

            def compute(self, channel_a, channel_b, *, config=None):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(MetricError):
            register_metric(BadTier)

    def test_bound_drift_refuses_channel_pairs(self):
        with pytest.raises(MetricError):
            get_metric("bound_drift").compute(bit_flip(0.1), bit_flip(0.2))


class TestMetricValue:
    def test_json_round_trip_excludes_the_bound_object(self):
        value = get_metric("trace_norm").compute(bit_flip(0.1), identity_noise(1))
        payload = value.to_json_dict()
        assert payload["metric"] == "trace_norm"
        assert payload["tier"] == TIER_EXACT
        assert "bound" not in payload

    def test_certified_property_follows_tier(self):
        assert MetricValue(metric="m", value=0.0, tier=TIER_CERTIFIED).certified
        assert not MetricValue(metric="m", value=0.0, tier=TIER_EXACT).certified

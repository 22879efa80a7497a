"""ExperimentSpec identity hashing and the E1–E14 registry."""

import dataclasses

import pytest

from repro.lab import GRAPHS, PROTOCOLS, PROVERS, REGISTRY, get_spec, get_specs
from repro.lab.spec import ExperimentSpec


class TestSpecHash:
    def test_golden_hash_value(self):
        # Pinned: a silent change to the identity digest would retire
        # every committed store file without anyone noticing.
        assert get_spec("E1-sym-dmam-cost").hash == "8b8ae20946d6"

    def test_hash_ignores_grids_and_trials(self):
        spec = get_spec("E1-sym-dmam-cost")
        resized = dataclasses.replace(spec, grid=(8, 16, 32),
                                      quick_grid=(8,), trials=99,
                                      quick_trials=1)
        assert resized.hash == spec.hash

    def test_hash_tracks_identity_fields(self):
        spec = get_spec("E1-sym-dmam-cost")
        assert dataclasses.replace(spec, protocol="sym-dam").hash \
            != spec.hash
        assert dataclasses.replace(spec, seed=1).hash != spec.hash
        assert dataclasses.replace(spec, graph="rigid").hash != spec.hash

    def test_hash_is_short_hex(self):
        for spec in REGISTRY:
            assert len(spec.hash) == 12
            int(spec.hash, 16)


class TestRegistry:
    def test_covers_every_experiment(self):
        assert {spec.experiment for spec in REGISTRY} \
            == {f"E{i}" for i in range(1, 15)}

    def test_names_are_unique(self):
        names = [spec.name for spec in REGISTRY]
        assert len(names) == len(set(names))

    def test_sweep_keys_resolve(self):
        for spec in REGISTRY:
            if spec.kind != "sweep":
                continue
            assert spec.protocol in PROTOCOLS
            assert spec.graph in GRAPHS
            for prover in spec.provers:
                assert prover in PROVERS

    def test_sweep_constructors_build(self):
        # Every sweep builds at its smallest size, so the rigid-6
        # families see every class index their builders use.
        for spec in REGISTRY:
            if spec.kind != "sweep":
                continue
            n = spec.grid[0]
            protocol = PROTOCOLS[spec.protocol](n)
            protocol.validate_instance(GRAPHS[spec.graph](n))
            for prover in spec.provers:
                assert PROVERS[prover](protocol) is not None

    def test_get_specs_preserves_registry_order(self):
        subset = get_specs(["E2-sym-dam-cost", "E1-lcp-baseline"])
        assert [s.name for s in subset] \
            == ["E1-lcp-baseline", "E2-sym-dam-cost"]

    def test_get_specs_unknown_name(self):
        with pytest.raises(KeyError, match="nonesuch"):
            get_specs(["nonesuch"])
        with pytest.raises(KeyError, match="nonesuch"):
            get_spec("nonesuch")

    def test_expected_model_always_a_candidate(self):
        for spec in REGISTRY:
            if spec.expect_model is not None:
                assert spec.expect_model in spec.fit_models


class TestValidation:
    def _base(self, **overrides):
        kwargs = dict(name="x", experiment="E1", title="t",
                      protocol="sym-dmam", graph="cycle",
                      grid=(8,), quick_grid=(8,), provers=("honest",),
                      trials=1, quick_trials=1)
        kwargs.update(overrides)
        return ExperimentSpec(**kwargs)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            self._base(kind="interpretive-dance")

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="protocol"):
            self._base(protocol="nonesuch")

    def test_unknown_prover_rejected(self):
        with pytest.raises(ValueError, match="provers"):
            self._base(provers=("honest", "nonesuch"))

    def test_expected_model_must_be_candidate(self):
        with pytest.raises(ValueError, match="candidates"):
            self._base(expect_model="n^3")

    def test_fixed_size_graphs_reject_other_sizes(self):
        with pytest.raises(ValueError, match="fixed"):
            GRAPHS["rigid"](7)

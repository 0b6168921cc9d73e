import math
import tracemalloc

import numpy as np
import pytest

from gatefid import compose_channels, noise_preset, parse_channel_spec
from gatefid.errors import CapacityError, ConfigError, DimensionError, FormatError, ParameterError
from gatefid.quantum import MAX_DIM, KrausChannel, exact_average_fidelity


class TestPresets:
    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
    def test_depolarizing_fidelity(self, p, d):
        model = noise_preset("depolarizing", (p,), d)
        assert model.exact_fidelity == pytest.approx(1 - p + p / d, abs=1e-9)

    def test_depolarizing_zero_is_identity(self):
        model = noise_preset("depolarizing", (0.0,), 2)
        assert len(model.kraus_ops) == 1
        assert model.exact_fidelity == pytest.approx(1.0)

    def test_depolarizing_one_qubit(self):
        assert noise_preset("depolarizing", (1.0,), 2).exact_fidelity == pytest.approx(0.5)

    def test_dephasing_qubit_matches_known_form(self):
        # stored value comes from the Kraus oracle, not an assumed formula;
        # for qubits that oracle value happens to equal 1 - p/3
        for p in (0.0, 0.3, 1.0):
            model = noise_preset("dephasing", (p,), 2)
            assert model.exact_fidelity == pytest.approx(1 - p / 3, abs=1e-9)

    def test_over_rotation_pi_about_z(self):
        model = noise_preset("over_rotation", ("z", math.pi), 2)
        assert model.exact_fidelity == pytest.approx(1 / 3, abs=1e-9)

    def test_over_rotation_axis_restrictions(self):
        noise_preset("over_rotation", ("x", 0.2), 2)
        with pytest.raises(ParameterError):
            noise_preset("over_rotation", ("x", 0.2), 4)
        noise_preset("over_rotation", ("z", 0.2), 4)

    def test_amplitude_damping_closed_form(self):
        g = 0.3
        model = noise_preset("amplitude_damping", (g,), 2)
        expect = ((1 + math.sqrt(1 - g)) ** 2 + 2) / 6
        assert model.exact_fidelity == pytest.approx(expect, abs=1e-9)

    def test_parameter_range_checked(self):
        with pytest.raises(ParameterError):
            noise_preset("depolarizing", (1.5,), 2)
        with pytest.raises(ParameterError):
            noise_preset("amplitude_damping", (-0.1,), 2)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            noise_preset("thermal", (0.1,), 2)

    def test_kraus_count_within_cap(self):
        for d in (2, 3, 4):
            model = noise_preset("depolarizing", (0.5,), d)
            assert 1 <= len(model.kraus_ops) <= d * d


    def test_presets_are_kraus_channels_with_their_oracle(self, preset_channels_d2):
        for ch in preset_channels_d2:
            assert isinstance(ch, KrausChannel)
            assert ch.exact_fidelity == exact_average_fidelity(ch)

    @pytest.mark.parametrize(
        "kind, params", [("identity", ()), ("depolarizing", (0.1,)), ("dephasing", (0.1,)),
                         ("over_rotation", ("z", 0.2))]
    )
    def test_dimension_cap_before_building(self, kind, params):
        if kind != "depolarizing":  # its d^2 operators take 268 MB at the cap
            assert noise_preset(kind, params, MAX_DIM).dim == MAX_DIM
        # one operator at d = 1000 takes 16 MB; depolarizing would build 10^6 of them
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="dense cap"):
                noise_preset(kind, params, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_parameter_errors_come_before_the_cap(self):
        for kind, params in [("depolarizing", (1.5,)), ("over_rotation", ("x", 0.2)),
                             ("over_rotation", ("w", 0.2)), ("amplitude_damping", (0.1,))]:
            with pytest.raises(ParameterError):
                noise_preset(kind, params, 200)
        with pytest.raises(ConfigError):
            noise_preset("thermal", (0.1,), 200)


class TestComposition:
    def test_composition_matches_sequential_application(self, rng, apply_kraus, random_state):
        a = noise_preset("depolarizing", (0.15,), 2)
        b = noise_preset("over_rotation", ("z", 0.4), 2)
        both = compose_channels([a, b])
        assert len(both.kraus_ops) <= 4
        for _ in range(20):
            rho = random_state(2, rng)
            seq = apply_kraus(b.kraus_ops, apply_kraus(a.kraus_ops, rho))
            joint = apply_kraus(both.kraus_ops, rho)
            assert np.max(np.abs(seq - joint)) <= 1e-9

    def test_composed_fidelity_from_oracle(self):
        a = noise_preset("depolarizing", (0.1,), 2)
        b = noise_preset("dephasing", (0.2,), 2)
        both = compose_channels([a, b])
        assert both.exact_fidelity == pytest.approx(exact_average_fidelity(both))

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            compose_channels([noise_preset("identity", (), 2), noise_preset("identity", (), 3)])


class TestSpecParsing:
    def test_zero_dimension_rejected(self):
        with pytest.raises(DimensionError):
            parse_channel_spec("depolarizing:0.2", 0)

    def test_single(self):
        model = parse_channel_spec("depolarizing:0.2", 2)
        assert model.spec == "depolarizing:0.2" and model.exact_fidelity == pytest.approx(0.9)

    def test_composition(self):
        model = parse_channel_spec("depolarizing:0.1+over_rotation:z,0.2", 2)
        assert isinstance(model, KrausChannel)
        assert model.spec == "depolarizing:0.1+over_rotation:z,0.2"

    def test_identity(self):
        assert parse_channel_spec("identity", 4).exact_fidelity == 1.0

    def test_bad_parameter(self):
        with pytest.raises(FormatError):
            parse_channel_spec("depolarizing:abc", 2)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            parse_channel_spec("foo:1", 2)

    def test_empty(self):
        with pytest.raises(FormatError):
            parse_channel_spec("++", 2)

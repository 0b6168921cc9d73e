import math
import tracemalloc

import numpy as np
import pytest

from gatefid import compose_channels, noise_preset, parse_channel_spec
from gatefid.errors import CapacityError, ConfigError, DimensionError, FormatError, ParameterError
from gatefid.quantum import MAX_DIM, KrausChannel, exact_average_fidelity, gate_fidelities

# Loop references: each preset and composition built one Kraus operator at a
# time, as the vectorised builders in gatefid.channels must reproduce.


def loop_weyl_operators(d):
    """X^a Z^b at index a d + b, each from its own matrix product."""
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d, dtype=np.complex128), 1, axis=0)
    clock = np.diag(omega ** np.arange(d))
    ops = []
    xa = np.eye(d, dtype=np.complex128)
    for _ in range(d):
        zb = np.eye(d, dtype=np.complex128)
        for _ in range(d):
            ops.append(xa @ zb)
            zb = zb @ clock
        xa = xa @ shift
    return ops


def loop_preset_kraus(kind, params, d):
    if kind == "identity":
        return [np.eye(d, dtype=np.complex128)]
    if kind == "depolarizing":
        (p,) = params
        ops = loop_weyl_operators(d)
        ops[0] *= math.sqrt(1.0 - p + p / d**2)
        if p == 0:
            return ops[:1]
        for w in ops[1:]:
            w *= math.sqrt(p) / d
        return ops
    if kind == "dephasing":
        (p,) = params
        if d == 1:
            return [np.eye(1, dtype=np.complex128)]
        kraus = [math.sqrt(1.0 - p) * np.eye(d, dtype=np.complex128)]
        if p > 0:
            for j in range(d):
                proj = np.zeros((d, d), dtype=np.complex128)
                proj[j, j] = math.sqrt(p)
                kraus.append(proj)
        return kraus
    if kind == "over_rotation":
        axis, angle = params
        if axis == "z":
            return [np.diag(np.exp(1j * angle * np.arange(d)))]
        sigma = {"x": [[0, 1], [1, 0]], "y": [[0, -1j], [1j, 0]]}[axis]
        return [math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * np.array(sigma)]
    (g,) = params  # amplitude_damping
    a0 = np.array([[1, 0], [0, math.sqrt(1 - g)]], dtype=np.complex128)
    a1 = np.array([[0, math.sqrt(g)], [0, 0]], dtype=np.complex128)
    return [a0, a1] if g > 0 else [a0]


def loop_products(models, d):
    ops = [np.eye(d, dtype=np.complex128)]
    for m in models:
        ops = [a @ b for a in m.kraus_ops for b in ops]
    return ops


def loop_reduce_kraus(ops, d):
    choi = np.zeros((d * d, d * d), dtype=np.complex128)
    for a in ops:
        v = a.reshape(-1)
        choi += np.outer(v, v.conj())
    w, vecs = np.linalg.eigh(choi)
    return [math.sqrt(lam) * vec.reshape(d, d) for lam, vec in zip(w, vecs.T) if lam > 1e-12]


PRESET_CASES = [
    (kind, params, d)
    for d in (*range(1, 9), 16, 32)
    for kind, params in [
        ("identity", ()), ("depolarizing", (0.0,)), ("depolarizing", (0.1,)),
        ("depolarizing", (1.0,)), ("dephasing", (0.0,)), ("dephasing", (0.3,)),
        ("dephasing", (1.0,)), ("over_rotation", ("z", 0.35)),
    ]
] + [
    ("over_rotation", ("x", 0.3), 2), ("over_rotation", ("y", 0.3), 2),
    ("amplitude_damping", (0.0,), 2), ("amplitude_damping", (0.3,), 2),
]


def loop_fidelity(ops, d):
    return float((sum(abs(np.trace(a)) ** 2 for a in ops) + d) / (d * d + d))


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

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_dephasing_at_d1_is_the_identity(self, p):
        # the one projector at d = 1 is the identity: one Kraus operator, not d + 1
        model = noise_preset("dephasing", (p,), 1)
        assert len(model.kraus_ops) == 1 and np.array_equal(model.kraus_ops[0], np.eye(1))
        assert model.spec == f"dephasing:{p:g}" and model.exact_fidelity == 1.0

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


class TestLoopIdentity:
    """The vectorised builders give the loop references' values entry for entry."""

    @pytest.mark.parametrize("kind, params, d", PRESET_CASES)
    def test_presets(self, kind, params, d, loop_weight_matrix):
        ch = noise_preset(kind, params, d)
        ref = loop_preset_kraus(kind, params, d)
        assert len(ch.kraus_ops) == len(ref)
        assert all(np.array_equal(a, b) for a, b in zip(ch.kraus_ops, ref))
        assert np.array_equal(ch.weights, loop_weight_matrix(ref))
        assert ch.exact_fidelity == loop_fidelity(ref, d)

    @pytest.mark.parametrize("spec, d", [
        ("depolarizing:0.1+over_rotation:z,0.35", 2), ("depolarizing:0.1+over_rotation:z,0.35", 3),
        ("depolarizing:0.1+over_rotation:z,0.35", 8),
        ("over_rotation:z,0.2+dephasing:0.1+over_rotation:z,0.1", 4),
        ("amplitude_damping:0.2+over_rotation:x,0.1", 2), ("dephasing:0.2+identity", 5),
    ])
    def test_unreduced_compositions(self, spec, d, loop_weight_matrix):
        # at most d^2 products: the composition keeps them, in the loop's order
        ch = parse_channel_spec(spec, d)
        ref = loop_products([parse_channel_spec(p, d) for p in spec.split("+")], d)
        assert len(ref) <= d * d and len(ch.kraus_ops) == len(ref)
        assert all(np.array_equal(a, b) for a, b in zip(ch.kraus_ops, ref))
        assert np.array_equal(ch.weights, loop_weight_matrix(ref))
        assert ch.exact_fidelity == loop_fidelity(ref, d)

    @pytest.mark.parametrize("spec, d", [
        ("depolarizing:0.1+depolarizing:0.1", 2), ("depolarizing:0.1+depolarizing:0.1", 3),
        ("depolarizing:0.1+depolarizing:0.1", 8), ("dephasing:0.2+depolarizing:0.1", 4),
        ("amplitude_damping:0.3+dephasing:0.2+over_rotation:x,0.4", 2),
    ])
    def test_reduced_compositions(self, spec, d, rng):
        # past d^2 products the Choi reduction's rounding may differ from the loop's
        ch = parse_channel_spec(spec, d)
        products = loop_products([parse_channel_spec(p, d) for p in spec.split("+")], d)
        assert len(products) > d * d
        ref = KrausChannel(tuple(loop_reduce_kraus(products, d)))
        assert len(ch.kraus_ops) == len(ref.kraus_ops)
        assert abs(ch.exact_fidelity - ref.exact_fidelity) <= 1e-12
        z = rng.standard_normal((200, d)) + 1j * rng.standard_normal((200, d))
        cols = z / np.linalg.norm(z, axis=1, keepdims=True)
        assert np.max(np.abs(gate_fidelities(ch, cols) - gate_fidelities(ref, cols))) <= 1e-12


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

    def test_products_past_the_cap_are_refused_before_they_are_built(self, monkeypatch):
        # 64 x 64 depolarizing Kraus operators at d = 8: 4096 products of 1 KiB
        from gatefid import channels

        a = noise_preset("depolarizing", (0.1,), 8)
        monkeypatch.setattr(channels, "RUN_MEMORY_CAP", 1 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="needs 4 MiB of products, over the 1 MiB cap"):
                compose_channels([a, a])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        monkeypatch.setattr(channels, "RUN_MEMORY_CAP", 4 << 20)  # exactly what the products need
        assert len(compose_channels([a, a]).kraus_ops) == 64

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
        # identity takes no parameter: "identity:5" once ran as the plain identity
        for spec in ("depolarizing:abc", "depolarizing:0.1,0.2", "identity:5", "identity:",
                     "depolarizing:0.1+identity:0.5"):
            with pytest.raises(FormatError, match="bad parameters in channel spec"):
                parse_channel_spec(spec, 2)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            parse_channel_spec("foo:1", 2)

    def test_empty(self):
        with pytest.raises(FormatError):
            parse_channel_spec("++", 2)

import functools
import hashlib
import itertools
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from gatefid import (
    MomentOperator,
    UnitaryEnsemble,
    builtin_ensemble,
    design_epsilon_from_lambda,
    haar_twirl_projector,
    load_ensemble,
    tensor_product,
    tpe_lambda,
)
from gatefid import ensembles
from gatefid.ensembles import _dense_superop, _lanczos_lambda, _phase_canonical
from gatefid.errors import (
    CapacityError,
    ConfigError,
    ConvergenceError,
    FormatError,
    ParameterError,
    ValidationError,
)
from gatefid.quantum import MAX_DIM, haar_unitaries_batch

X = np.array([[0, 1], [1, 0]], dtype=complex)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# Slow references: one np.kron chain per unitary, a plain einsum over the
# stacked powers, each permutation operator as a dense matrix, the twirl as a
# dense d^{2t} x d^{2t} matrix and lambda as the spectral norm of a dense SVD.


def reference_kron_pow(u, t):
    out = u
    for _ in range(t - 1):
        out = np.kron(out, u)
    return out


def reference_dense_superop(e, t):
    stack = np.array([reference_kron_pow(u, t) for u in e.unitaries])
    big = stack.shape[1]
    return np.einsum("sab,scd->acbd", stack, stack.conj()).reshape(big * big, big * big) / e.size


def reference_permutation_operator(d, t, perm):
    """Operator permuting the t tensor factors of (C^d)^{tensor t}."""
    dim = d**t
    idx = np.arange(dim)
    digits = np.array(np.unravel_index(idx, (d,) * t))  # (t, dim)
    inv = [0] * t
    for i, p in enumerate(perm):
        inv[p] = i
    permuted = np.ravel_multi_index(tuple(digits[inv[j]] for j in range(t)), (d,) * t)
    op = np.zeros((dim, dim), dtype=np.complex128)
    op[permuted, idx] = 1.0
    return op


def permutation_operators(d, t):
    """The t! dense permutation operators, in haar_twirl_projector's order."""
    return np.array(
        [reference_permutation_operator(d, t, p) for p in itertools.permutations(range(t))]
    )


def cycle_count(perm):
    seen, cycles = set(), 0
    for i in range(len(perm)):
        if i not in seen:
            cycles += 1
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return cycles


# Leading 16 hex digits of the SHA-256 of permutation_rows and of
# gram_inverse, taken when the Gram matrix was built from cycle counts.
TWIRL_PINS = {
    (1, 1): ("af5570f5a1810b7a", "6c3c396ed6b5c36d"),
    (1, 2): ("374708fff7719dd5", "e9e366020fb4fd97"),
    (1, 3): ("17b0761f87b081d5", "b62c9f5a3627cd60"),
    (1, 4): ("5d89f056865052bc", "cdf5c3209dc82e0b"),
    (2, 1): ("9d34149fbd1fe777", "4cfa5b42ca669328"),
    (2, 2): ("27ff7e6e08a47193", "ee97ef908498548b"),
    (2, 3): ("3ceb18766388da05", "f998c51709ff30d6"),
    (2, 4): ("3987bf893688c5af", "4a21b3062010c5db"),
    (3, 1): ("ab25350e3e65efeb", "9327e29fb26cdc73"),
    (3, 2): ("5d22a1a450f3bd78", "9045dc4a1ed727ae"),
    (3, 3): ("0a34ae8ef2798794", "78c16750f4294652"),
    (3, 4): ("d3b65666459679df", "388a189be8c48eed"),
    (4, 1): ("a1e03200f1f82ad2", "272f78036db6721f"),
    (4, 2): ("86fc312669b81186", "ac344d0867f3ee2c"),
    (4, 3): ("058965632cd6b4e4", "a9bc57c53e4c04b2"),
    (4, 4): ("3dfab250ea6afce1", "78376c980c3e69a1"),
    (6, 1): ("f190072c5052f4f4", "81b6e2a4b36d6e37"),
    (6, 2): ("7be044b67fd4c7cc", "daa293b357bd7877"),
    (6, 3): ("95b9d9542b3aa92a", "a7c469a3859f67a4"),
    (6, 4): ("7784282491c1bd45", "92e8eea2fa940012"),
    (8, 1): ("fece8d601cd4c902", "1cab600f57951016"),
    (8, 2): ("36caf0fb8b75c383", "aa491d7f2c48fe0a"),
    (8, 3): ("64b4c20c3d2618a3", "8ec2f408f334de99"),
    (16, 1): ("f23d672bb9b341f9", "e452a95f61b21a03"),
    (16, 2): ("22efc8fcfb3a75bb", "3bfcb19884a9a1dc"),
    (32, 1): ("bcc9bcfc670935c6", "e88967535eb1a4cc"),
    (32, 2): ("9cae1bf6a1794310", "2d0964392e2169d7"),
}


def dense_twirl(proj):
    """The twirl as a dense matrix on row-major vec(M), built from its index form."""
    count, big = proj.permutation_rows.shape
    flat = np.zeros((count, big * big), dtype=np.complex128)  # rows vec(P_pi)
    flat[np.arange(count)[:, None], proj.permutation_rows * big + np.arange(big)] = 1.0
    pmat = flat.T
    return pmat @ proj.gram_inverse @ pmat.conj().T


def dense_svd_lambda(e, t):
    """lambda_t as the largest singular value of the dense G - HaarTwirl."""
    proj = haar_twirl_projector(e.dim, t)
    return float(np.linalg.norm(_dense_superop(e, t) - dense_twirl(proj), 2))


class TestBuiltins:
    def test_sizes(self, clifford, pauli):
        assert clifford.size == 24 and clifford.dim == 2
        assert pauli.size == 4 and pauli.dim == 2

    def test_identity_only_dimension(self):
        e = builtin_ensemble("identity_only", d=3)
        assert e.size == 1 and e.dim == 3
        assert np.allclose(e.unitaries[0], np.eye(3))

    def test_identity_only_dimension_cap(self):
        assert builtin_ensemble("identity_only", d=MAX_DIM).dim == MAX_DIM
        with pytest.raises(CapacityError, match="dense cap"):
            builtin_ensemble("identity_only", d=MAX_DIM + 1)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            builtin_ensemble("nope")

    def test_one_shared_instance_per_name_and_d(self):
        clifford = builtin_ensemble("clifford1q")
        assert builtin_ensemble("clifford1q") is clifford
        assert clifford.unitaries.tobytes() == ensembles._clifford1q_stack().tobytes()
        assert not clifford.unitaries.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            clifford.unitaries[0, 0, 0] = 0
        assert builtin_ensemble("identity_only", 3) is builtin_ensemble("identity_only", 3)
        assert builtin_ensemble("identity_only", 3) is not builtin_ensemble("identity_only", 4)

    def test_clifford_closed_under_multiplication(self, clifford, rng):
        keys = {_phase_canonical(u) for u in clifford.unitaries}
        idx = rng.integers(0, 24, size=(50, 2))
        for i, j in idx:
            prod = clifford.unitaries[i] @ clifford.unitaries[j]
            assert _phase_canonical(prod) in keys

    def test_tensor_product_structure(self, clifford, pauli):
        e = tensor_product(pauli, pauli)
        assert e.dim == 4 and e.size == 16
        expect = np.kron(pauli.unitaries[1], pauli.unitaries[2])
        assert any(np.allclose(u, expect) for u in e.unitaries)

    def test_tensor_product_dimension_cap(self, pauli):
        # refused before the stack is formed, with builtin_ensemble's message
        half = builtin_ensemble("identity_only", d=MAX_DIM // 2)
        assert tensor_product(half, pauli).dim == MAX_DIM
        wide = builtin_ensemble("identity_only", d=MAX_DIM)
        message = f"dimension {2 * MAX_DIM} exceeds the dense cap {MAX_DIM}"
        with pytest.raises(CapacityError, match=message):
            tensor_product(wide, pauli)

    def test_tensor_factors_are_flattened(self, clifford, pauli):
        assert clifford.tensor_factors == ()
        left = tensor_product(tensor_product(pauli, clifford), pauli)
        right = tensor_product(pauli, tensor_product(clifford, pauli))
        for e in (left, right):
            assert len(e.tensor_factors) == 3
            assert all(f is g for f, g in zip(e.tensor_factors, (pauli, clifford, pauli)))
        assert np.array_equal(left.unitaries, right.unitaries)


class TestEnsembleIO:
    def test_round_trip(self, clifford, tmp_path):
        path = tmp_path / "cl.json"
        unitaries = [[[[x.real, x.imag] for x in row] for row in u] for u in clifford.unitaries]
        path.write_text(json.dumps({"d": 2, "label": clifford.label, "unitaries": unitaries}))
        back = load_ensemble(path)
        assert back.dim == clifford.dim and back.label == clifford.label
        assert np.max(np.abs(back.unitaries - clifford.unitaries)) <= 1e-12

    def test_non_unitary_member_named(self, tmp_path):
        bad = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]
        good = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        doc = {"d": 2, "label": "bad", "unitaries": [good, bad]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=r"unitaries\[1\]"):
            load_ensemble(path)

    def test_mixed_dimensions_rejected(self, tmp_path):
        small = [[[1.0, 0.0]]]
        good = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        doc = {"d": 2, "label": "mixed", "unitaries": [good, small]}
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            load_ensemble(path)

    def test_parse_failure(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_ensemble(path)

    def test_weighted_rejected(self, tmp_path):
        doc = {"d": 2, "label": "w", "unitaries": [], "weights": [1.0]}
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="uniform"):
            load_ensemble(path)

    def test_unknown_key_rejected(self, tmp_path):
        doc = {"d": 2, "label": "x", "unitaries": [], "extra": 1}
        path = tmp_path / "x.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="extra"):
            load_ensemble(path)


def dense_apply(superop, m):
    return (superop @ m.reshape(-1)).reshape(m.shape)


@pytest.fixture(scope="module")
def random_qutrits():
    """A non-product d = 3 ensemble. MomentOperator applies its dense superoperator
    while 3^{2t} <= DENSE_CAP (t <= 3) and loops over its unitaries past that,
    so a test that needs the loop at small t lowers the cap."""
    rng = np.random.Generator(np.random.Philox(0x3D3))
    return UnitaryEnsemble(3, haar_unitaries_batch(3, 20, rng), "random-qutrits")


class TestMomentOperator:
    def test_identity_only_t1_is_identity_superoperator(self):
        assert np.allclose(_dense_superop(builtin_ensemble("identity_only", d=2), 1), np.eye(4))

    def test_pauli_t1_averages_traceless_to_zero(self, pauli):
        g = MomentOperator(pauli, 1)
        assert np.max(np.abs(g.apply(X))) <= 1e-12

    def test_clifford_t2_equals_haar_twirl(self, clifford, rng):
        g = MomentOperator(clifford, 2)
        proj = haar_twirl_projector(2, 2)
        for _ in range(5):
            m = random_matrix(rng, 4)
            assert np.max(np.abs(g.apply(m) - proj.apply(m))) <= 1e-9

    def test_dense_and_matrix_free_agree(self, clifford, rng):
        dense = _dense_superop(clifford, 2)
        free = MomentOperator(clifford, 2)
        for _ in range(10):
            m = random_matrix(rng, 4)
            assert np.max(np.abs(dense_apply(dense, m) - free.apply(m))) <= 1e-9

    @pytest.mark.parametrize("t", [2, 3])
    def test_loop_matches_dense(self, random_qutrits, rng, monkeypatch, t):
        monkeypatch.setattr(ensembles, "DENSE_CAP", 1)
        g = MomentOperator(random_qutrits, t)
        assert g._superops == (None,)
        dense = _dense_superop(random_qutrits, t)
        big = 3**t
        for _ in range(3):
            m = random_matrix(rng, big)
            assert np.max(np.abs(g.apply(m) - dense_apply(dense, m))) <= 1e-9
            assert np.max(np.abs(g.apply_adjoint(m) - dense_apply(dense.conj().T, m))) <= 1e-9

    def test_trace_preserving_and_unital(self, pauli, clifford, rng):
        for e, t in [(pauli, 1), (clifford, 2)]:
            g = MomentOperator(e, t)
            big = e.dim**t
            assert np.allclose(g.apply(np.eye(big, dtype=complex)), np.eye(big), atol=1e-9)
            for _ in range(10):
                m = random_matrix(rng, big)
                m -= np.trace(m) / big * np.eye(big)
                assert abs(np.trace(g.apply(m))) <= 1e-9

    def test_fixes_permutation_operators(self, pauli, clifford):
        for e in (pauli, clifford):
            for t in (1, 2):
                g = MomentOperator(e, t)
                for p in permutation_operators(e.dim, t):
                    assert np.max(np.abs(g.apply(p) - p)) <= 1e-12

    def test_factored_matches_generic(self, clifford, pauli, rng):
        e = tensor_product(pauli, clifford)
        g = MomentOperator(e, 1)
        assert len(g._superops) == 2 and all(s is not None for s in g._superops)
        m = random_matrix(rng, 4)
        brute = sum(u @ m @ u.conj().T for u in e.unitaries) / e.size
        assert np.max(np.abs(g.apply(m) - brute)) <= 1e-9
        # adjoint pairing <G(a), b> == <a, G^dag(b)>
        b = random_matrix(rng, 4)
        assert abs(np.vdot(g.apply(m), b) - np.vdot(m, g.apply_adjoint(b))) <= 1e-9

    @pytest.mark.parametrize("case,t", [("builtins", 1), ("random", 1), ("random", 2)])
    def test_nested_product_matches_reference(self, clifford, pauli, rng, case, t):
        if case == "builtins":
            e = tensor_product(tensor_product(pauli, clifford), pauli)
        else:
            # two-element Haar qubit sets nested on the right: 16 unitaries keep the
            # einsum reference at 4096 rows to seconds (the 384 builtin products take ~35 s)
            a, b = (UnitaryEnsemble(2, haar_unitaries_batch(2, 2, rng), "haar2") for _ in range(2))
            e = tensor_product(pauli, tensor_product(a, b))
        g = MomentOperator(e, t)
        assert len(g._superops) == 3 and all(s is not None for s in g._superops)
        dense = reference_dense_superop(e, t)
        for _ in range(3):
            m = random_matrix(rng, 8**t)
            assert np.max(np.abs(g.apply(m) - dense_apply(dense, m))) <= 1e-12
            assert np.max(np.abs(g.apply_adjoint(m) - dense_apply(dense.conj().T, m))) <= 1e-12

    @pytest.mark.parametrize("t,cap", [(1, 8), (2, 16)])
    def test_mixed_loop_and_dense_factors(self, random_qutrits, pauli, rng, monkeypatch, t, cap):
        # the qutrit factor (3^{2t} rows) is past the lowered cap, the Pauli one (2^{2t}) is not
        e = tensor_product(random_qutrits, pauli)
        monkeypatch.setattr(ensembles, "DENSE_CAP", cap)
        g = MomentOperator(e, t)
        assert g._superops[0] is None and g._superops[1] is not None
        dense = reference_dense_superop(e, t)
        big = 6**t
        for _ in range(3):
            m, b = random_matrix(rng, big), random_matrix(rng, big)
            assert np.max(np.abs(g.apply(m) - dense_apply(dense, m))) <= 1e-12
            assert np.max(np.abs(g.apply_adjoint(m) - dense_apply(dense.conj().T, m))) <= 1e-12
            assert abs(np.vdot(g.apply(m), b) - np.vdot(m, g.apply_adjoint(b))) <= 1e-9


class TestHaarTwirlProjector:
    @pytest.mark.parametrize("t", [0, -1])
    def test_nonpositive_power_rejected(self, t):
        with pytest.raises(ParameterError):
            haar_twirl_projector(2, t)

    def test_t1_closed_form(self, rng):
        proj = haar_twirl_projector(3, 1)
        m = random_matrix(rng, 3)
        assert np.allclose(proj.apply(m), np.trace(m) * np.eye(3) / 3)

    def test_swap_is_fixed(self):
        proj = haar_twirl_projector(2, 2)
        assert np.max(np.abs(proj.apply(SWAP) - SWAP)) <= 1e-9

    def test_idempotent_and_self_adjoint(self, rng):
        for d, t in [(2, 2), (3, 2), (2, 3)]:
            proj = haar_twirl_projector(d, t)
            m = random_matrix(rng, d**t)
            once = proj.apply(m)
            assert np.max(np.abs(proj.apply(once) - once)) <= 1e-9
            b = random_matrix(rng, d**t)
            assert abs(np.vdot(proj.apply(m), b) - np.vdot(m, proj.apply(b))) <= 1e-9

    def test_small_d_rank_deficiency(self, rng):
        # d < t leaves the permutation operators linearly dependent
        proj = haar_twirl_projector(2, 3)
        m = random_matrix(rng, 8)
        once = proj.apply(m)
        assert np.max(np.abs(proj.apply(once) - once)) <= 1e-9

    def test_gram_matches_trace_inner_products(self):
        proj = haar_twirl_projector(2, 3)
        basis = permutation_operators(2, 3)
        gram = np.array([[np.vdot(p, q).real for q in basis] for p in basis])
        recon = np.linalg.pinv(proj.gram_inverse, rcond=1e-10)
        assert np.max(np.abs(gram - recon)) <= 1e-6

    def test_cap(self):
        with pytest.raises(CapacityError):
            haar_twirl_projector(2, 5)

    def test_monte_carlo_oracle(self, rng):
        # twirl of |00><01| at t=2, d=2 against a large Haar sample
        e = np.zeros((4, 4), dtype=complex)
        e[0, 1] = 1.0
        proj = haar_twirl_projector(2, 2)
        exact = proj.apply(e)
        total = np.zeros((4, 4), dtype=complex)
        sq_total = np.zeros((4, 4))
        n = 1_000_000
        chunk = 50_000
        for _ in range(n // chunk):
            us = haar_unitaries_batch(2, chunk, rng)
            u2 = np.einsum("nab,ncd->nacbd", us, us).reshape(chunk, 4, 4)
            conj = np.einsum("nab,bc,ndc->nad", u2, e, u2.conj())
            total += conj.sum(axis=0)
            sq_total += (np.abs(conj) ** 2).sum(axis=0)
        mean = total / n
        var = sq_total / n - np.abs(mean) ** 2
        stderr = np.sqrt(np.clip(var, 0, None) / n)
        assert np.all(np.abs(mean - exact) <= 3 * stderr + 1e-12)


SUPEROP_CASES = [
    *(("clifford1q", t) for t in (1, 2, 3, 4)),
    *(("pauli1q", t) for t in (1, 2, 3, 4)),
    *(("identity_only", t) for t in (1, 2, 3, 4)),
    # t = 3 has 4096 rows, where the einsum reference over 576 powers takes minutes
    *(("product", t) for t in (1, 2)),
    # t = 4 is past DENSE_CAP
    *(("random_qutrits", t) for t in (1, 2, 3)),
]


@pytest.fixture(scope="module")
def named_ensembles(clifford, pauli, random_qutrits):
    return {
        "clifford1q": clifford,
        "pauli1q": pauli,
        "identity_only": builtin_ensemble("identity_only", d=2),
        "product": tensor_product(clifford, clifford),
        "random_qutrits": random_qutrits,
    }


class TestDenseSuperopReference:
    @pytest.mark.parametrize("name,t", SUPEROP_CASES)
    def test_gemm_matches_einsum(self, named_ensembles, name, t):
        e = named_ensembles[name]
        assert np.max(np.abs(_dense_superop(e, t) - reference_dense_superop(e, t))) <= 1e-13

    @pytest.mark.parametrize("per_block", [1, 5])
    @pytest.mark.parametrize("name,t", [("clifford1q", 2), ("product", 1), ("random_qutrits", 3)])
    def test_split_blocks_match_einsum(self, named_ensembles, monkeypatch, name, t, per_block):
        e = named_ensembles[name]
        monkeypatch.setattr(ensembles, "_BLOCK_BYTES", per_block * e.dim ** (2 * t) * 16)
        assert len(list(ensembles._kron_powers(e.unitaries, t))) == -(-e.size // per_block)
        assert np.max(np.abs(_dense_superop(e, t) - reference_dense_superop(e, t))) <= 1e-13

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_kron_powers_equal_np_kron(self, random_qutrits, monkeypatch, t):
        monkeypatch.setattr(ensembles, "_BLOCK_BYTES", 3 * 3 ** (2 * t) * 16)
        got = np.concatenate(list(ensembles._kron_powers(random_qutrits.unitaries, t)))
        ref = np.array([reference_kron_pow(u, t) for u in random_qutrits.unitaries])
        assert np.array_equal(got, ref)


class TestTwirlIndexForm:
    @pytest.mark.parametrize("d,t", [(1, 3), (2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
    def test_dense_equals_dense_basis_projector(self, d, t):
        proj = haar_twirl_projector(d, t)
        pmat = permutation_operators(d, t).reshape(-1, d ** (2 * t)).T
        assert np.array_equal(dense_twirl(proj), pmat @ proj.gram_inverse @ pmat.conj().T)

    @pytest.mark.parametrize("d,t", [(2, 2), (2, 4), (3, 3), (3, 4), (4, 2)])
    def test_apply_matches_dense_basis(self, rng, d, t):
        proj = haar_twirl_projector(d, t)
        basis = permutation_operators(d, t)
        for _ in range(3):
            m = random_matrix(rng, d**t)
            overlaps = np.array([np.vdot(p, m) for p in basis])
            ref = np.tensordot(proj.gram_inverse @ overlaps, basis, axes=1)
            assert np.max(np.abs(proj.apply(m) - ref)) <= 1e-12

    def test_gram_is_d_to_the_cycles_at_every_size_within_the_caps(self, monkeypatch):
        grams, pinv = [], np.linalg.pinv
        monkeypatch.setattr(np.linalg, "pinv", lambda a, **kw: grams.append(a) or pinv(a, **kw))
        for t in range(1, ensembles.TWIRL_T_CAP + 1):
            perms = list(itertools.permutations(range(t)))
            d = 1
            while d ** (2 * t) * 16 <= ensembles.TWIRL_OPERAND_CAP:
                haar_twirl_projector(d, t)
                # pi^-1 sigma maps i to p.index(q[i])
                want = [[d ** cycle_count([p.index(v) for v in q]) for q in perms] for p in perms]
                assert grams.pop().tolist() == want, (d, t)
                d += 1

    @pytest.mark.parametrize("d,t", sorted(TWIRL_PINS))
    def test_pinned_bytes(self, d, t):
        proj = haar_twirl_projector(d, t)
        digests = tuple(
            hashlib.sha256(a.tobytes()).hexdigest()[:16]
            for a in (proj.permutation_rows, proj.gram_inverse)
        )
        assert proj.permutation_rows.dtype == np.int64 and digests == TWIRL_PINS[d, t]

    def test_operand_cap(self):
        with pytest.raises(CapacityError, match="4096 x 4096 operands of 256 MiB each"):
            haar_twirl_projector(8, 4)
        assert haar_twirl_projector(5, 4).permutation_rows.shape == (24, 625)


class TestUnitarityCheck:
    def test_first_failing_index_named_across_blocks(self, clifford, monkeypatch):
        stack = clifford.unitaries.copy()
        stack[7] *= 1.01
        stack[19] = 0.0
        monkeypatch.setattr(ensembles, "_BLOCK_BYTES", 5 * 2 * 2 * 16)  # 5 unitaries a block
        with pytest.raises(ValidationError) as err:
            UnitaryEnsemble(2, stack, "bad")
        assert str(err.value) == "unitaries[7] is not unitary within tolerance"

    def test_nan_entry_rejected(self, clifford):
        stack = clifford.unitaries.copy()
        stack[3, 0, 0] = np.nan
        with pytest.raises(ValidationError, match=r"unitaries\[3\]"):
            UnitaryEnsemble(2, stack, "nan")

    def test_tolerance(self, clifford):
        assert UnitaryEnsemble(2, clifford.unitaries * (1 + 1e-10), "near").size == 24
        with pytest.raises(ValidationError, match=r"unitaries\[0\]"):
            UnitaryEnsemble(2, clifford.unitaries * (1 + 1e-7), "far")


# Every non-group case with d^{2t} <= DENSE_CAP that the dense SVD reference
# takes in seconds; the 4096-row product at t = 3 (a 90 s SVD) is left out.
LANCZOS_CASES = [
    *((name, t) for name in ("clifford1q", "pauli1q", "identity_only", "haar_qubits")
      for t in (1, 2, 3, 4)),
    *(("identity_only_d3", t) for t in (1, 2, 3)),
    *(("random_qutrits", t) for t in (1, 2, 3)),
    *(("product", t) for t in (1, 2)),
    # lambda ~ 1e-6 and ~ 1e-9: one step's Rayleigh quotient would under-report it by about half
    *(("near_clifford", t) for t in (1, 2, 3)),
    *(("faint_clifford", t) for t in (2, 3)),
]


@pytest.fixture(scope="module")
def lanczos_ensembles(clifford, pauli, random_qutrits):
    rng = np.random.Generator(np.random.Philox(0x2B17))
    near, faint = clifford.unitaries.copy(), clifford.unitaries.copy()
    near[3] = np.diag(np.exp([1e-5j, -1e-5j])) @ near[3]  # one element times exp(1e-5 i Z)
    faint[3] = np.diag(np.exp([1e-8j, -1e-8j])) @ faint[3]
    return {
        "clifford1q": UnitaryEnsemble(2, clifford.unitaries, "c"),
        "pauli1q": UnitaryEnsemble(2, pauli.unitaries, "p"),
        "identity_only": UnitaryEnsemble(2, np.eye(2)[None], "i2"),
        "identity_only_d3": UnitaryEnsemble(3, np.eye(3)[None], "i3"),
        "haar_qubits": UnitaryEnsemble(2, haar_unitaries_batch(2, 6, rng), "haar-qubits"),
        "random_qutrits": random_qutrits,
        "product": tensor_product(UnitaryEnsemble(2, clifford.unitaries, "c"), pauli),
        "near_clifford": UnitaryEnsemble(2, near, "near-c"),
        "faint_clifford": UnitaryEnsemble(2, faint, "faint-c"),
    }


class TestTpeLambda:
    def test_clifford_is_exact_3_design(self, clifford):
        for t in (1, 2, 3):
            assert tpe_lambda(clifford, t).lambda_value <= 1e-9

    def test_clifford_fails_at_4(self, clifford):
        assert tpe_lambda(clifford, 4).lambda_value > 0.01

    def test_pauli_lambdas(self, pauli):
        assert tpe_lambda(pauli, 1).lambda_value <= 1e-9
        assert tpe_lambda(pauli, 2).lambda_value > 0.5

    def test_identity_only_is_not_a_design(self):
        e = builtin_ensemble("identity_only", d=2)
        assert tpe_lambda(e, 1).lambda_value > 0.5

    def test_monotone_in_t(self, clifford, pauli):
        for e in (clifford, pauli):
            lams = [tpe_lambda(e, t).lambda_value for t in (1, 2, 3, 4)]
            for small, big in zip(lams, lams[1:]):
                assert small <= big + 1e-8

    def test_lambda_at_most_one(self, clifford, pauli):
        for e in (clifford, pauli):
            for t in (1, 2, 3, 4):
                assert 0.0 <= tpe_lambda(e, t).lambda_value <= 1.0 + 1e-9

    @pytest.mark.parametrize("name,t", LANCZOS_CASES)
    def test_lanczos_matches_dense_svd(self, lanczos_ensembles, name, t):
        e = lanczos_ensembles[name]
        assert not e.group and e.dim ** (2 * t) <= ensembles.DENSE_CAP
        chk = tpe_lambda(e, t)
        assert chk.method == "lanczos"
        assert abs(chk.lambda_value - dense_svd_lambda(e, t)) <= 1e-12
        lam = chk.lambda_value
        stop = max(ensembles._LANCZOS_TOL * lam, ensembles._LANCZOS_FLOOR) * lam
        assert chk.residual <= stop * (1 + 1e-9) and 1 <= chk.iterations

    @pytest.mark.parametrize("t", [2, 3])
    def test_loop_factor_lanczos_matches_dense_svd(self, random_qutrits, monkeypatch, t):
        reference = dense_svd_lambda(random_qutrits, t)
        monkeypatch.setattr(ensembles, "DENSE_CAP", 1)  # the operator loops over the unitaries
        assert MomentOperator(random_qutrits, t)._superops == (None,)
        chk = tpe_lambda(random_qutrits, t)
        assert chk.method == "lanczos"
        assert abs(chk.lambda_value - reference) <= 1e-12

    def test_tensor_clifford_lambda4_saturates(self, clifford):
        # local conjugations fix split permutation operators, so the gap closes
        plain = UnitaryEnsemble(2, clifford.unitaries, clifford.label)
        chk = tpe_lambda(tensor_product(plain, clifford), 4)
        assert chk.method == "lanczos"
        assert chk.lambda_value == pytest.approx(1.0, abs=1e-12)
        group = tpe_lambda(tensor_product(clifford, clifford), 4)
        assert group.method == "group" and group.lambda_value == 1.0


def plain_copy(e):
    """The same unitaries without the group flag, so tpe_lambda takes a numeric
    path: a product is rebuilt from its plain factors, the first one unflagged."""
    first, *rest = e.tensor_factors or (e,)
    return functools.reduce(
        tensor_product, rest, UnitaryEnsemble(first.dim, first.unitaries, first.label)
    )


class TestGroupLambda:
    """lambda_t of a group from its frame potential against the numeric paths."""

    CASES = [
        *((name, None, t) for name in ("clifford1q", "pauli1q") for t in (1, 2, 3, 4)),
        *(("identity_only", d, t) for d in (1, 2, 3) for t in (1, 2, 3, 4)),
        *(("product", None, t) for t in (1, 2, 4)),
        ("nested", None, 3),
    ]

    @pytest.mark.parametrize("name,d,t", CASES)
    def test_matches_numeric_path(self, clifford, pauli, name, d, t):
        if name == "product":
            e = tensor_product(clifford, clifford)
        elif name == "nested":
            e = tensor_product(tensor_product(clifford, pauli), clifford)
        else:
            e = builtin_ensemble(name, d)
        group = tpe_lambda(e, t)
        assert group.method == "group"
        assert group.lambda_value in (0.0, 1.0)
        assert group.iterations is None and group.residual is None
        copy = plain_copy(e)
        assert np.array_equal(copy.unitaries, e.unitaries) and not copy.group
        numeric = tpe_lambda(copy, t)
        assert numeric.method == "lanczos"
        assert abs(group.lambda_value - numeric.lambda_value) <= 1e-12
        assert group.epsilon2_bound == design_epsilon_from_lambda(group.lambda_value, e.dim)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_haar_frame_potential_is_twirl_rank(self, d, t):
        rows = haar_twirl_projector(d, t).permutation_rows
        gram = (rows[:, None, :] == rows[None, :, :]).sum(axis=2)  # Tr(P_pi^T P_sigma)
        assert ensembles._haar_frame_potential(d, t) == np.linalg.matrix_rank(gram)

    def test_builds_no_twirl_or_superoperator(self, clifford, monkeypatch):
        def refuse(*_):
            raise AssertionError("the group path built a dense operand")

        monkeypatch.setattr(ensembles, "haar_twirl_projector", refuse)
        monkeypatch.setattr(ensembles, "_dense_superop", refuse)
        assert tpe_lambda(tensor_product(clifford, clifford), 4).lambda_value == 1.0

    def test_same_refusals_before_dispatch(self, clifford):
        # the operand cap on a group is checked through the CLI in TestTwirlBasisCap
        with pytest.raises(ParameterError):
            tpe_lambda(clifford, 0)
        with pytest.raises(CapacityError, match="twirl cap"):
            tpe_lambda(clifford, 5)

    def test_off_integer_gap_falls_back(self):
        # random unitaries wrongly flagged a group: their frame potential is no integer
        rng = np.random.Generator(np.random.Philox(0x6A9))
        fake = UnitaryEnsemble(2, haar_unitaries_batch(2, 5, rng), "fake", group=True)
        chk = tpe_lambda(fake, 2)
        assert chk.method == "lanczos"
        assert chk.lambda_value == tpe_lambda(plain_copy(fake), 2).lambda_value


class TestGroupProvenance:
    @pytest.mark.parametrize("name,d", [("clifford1q", None), ("pauli1q", None),
                                        ("identity_only", 1), ("identity_only", 3)])
    def test_builtins_are_groups_modulo_phase(self, name, d):
        e = builtin_ensemble(name, d)
        assert e.group
        keys = {_phase_canonical(u) for u in e.unitaries}
        assert len(keys) == e.size  # each element once
        for u in e.unitaries:
            for v in e.unitaries:
                assert _phase_canonical(u @ v) in keys

    def test_plain_construction_is_not_a_group(self, clifford):
        assert not UnitaryEnsemble(2, clifford.unitaries, "c").group

    def test_loaded_files_are_never_groups(self, clifford, write_ensemble, tmp_path):
        loaded = load_ensemble(write_ensemble(tmp_path / "c.json", clifford.unitaries, "c"))
        assert not loaded.group
        assert not tensor_product(clifford, loaded).group
        assert not tensor_product(loaded, clifford).group

    def test_products_of_groups_are_groups(self, clifford, pauli):
        assert tensor_product(clifford, pauli).group
        assert tensor_product(tensor_product(clifford, pauli), clifford).group


class TestProductStackCap:
    def test_five_fold_clifford_refused_before_the_einsum(self, clifford):
        # the four-fold product's shape without its 1.27 GiB: one matrix, broadcast
        four = SimpleNamespace(
            unitaries=np.broadcast_to(np.eye(16, dtype=complex), (24**4, 16, 16)), label="c4"
        )
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="7962624 unitaries of d = 32, 121.5 GiB"):
                tensor_product(four, clifford)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # the four-fold product itself (d = 16) stays under the cap
        assert 24**4 * 16**2 * 16 <= ensembles.PRODUCT_STACK_CAP

    def test_cap_admits_a_stack_of_its_own_size(self, clifford, monkeypatch):
        monkeypatch.setattr(ensembles, "PRODUCT_STACK_CAP", 24 * 24 * 4**2 * 16)
        assert tensor_product(clifford, clifford).size == 576
        monkeypatch.setattr(ensembles, "PRODUCT_STACK_CAP", 24 * 24 * 4**2 * 16 - 1)
        with pytest.raises(CapacityError, match="holds 576 unitaries of d = 4"):
            tensor_product(clifford, clifford)


class TestDesignEpsilon:
    def test_values(self):
        assert design_epsilon_from_lambda(0.0, 4) == 0.0
        assert design_epsilon_from_lambda(1e-6, 2) == pytest.approx(1.6e-5)
        assert design_epsilon_from_lambda(0.1, 8) == pytest.approx(409.6)

    def test_vacuous_flag(self, pauli):
        chk = tpe_lambda(pauli, 2)
        assert chk.vacuous and chk.epsilon2_bound > 2


class TestConvergence:
    def test_lanczos_step_cap(self, random_qutrits, monkeypatch):
        monkeypatch.setattr(ensembles, "_LANCZOS_MAX", 1)
        with pytest.raises(ConvergenceError, match="in 1 steps") as err:
            _lanczos_lambda(MomentOperator(random_qutrits, 2), haar_twirl_projector(3, 2))
        assert err.value.residual > ensembles._LANCZOS_TOL

    def test_zero_operator_stops_at_once(self, clifford):
        # an exact 2-design: A = G - HaarTwirl vanishes, so beta_1 ~ 0 ends the recurrence
        g = MomentOperator(UnitaryEnsemble(2, clifford.unitaries, "c"), 2)
        lam, steps, resid = _lanczos_lambda(g, haar_twirl_projector(2, 2))
        assert steps == 1 and lam <= 1e-15 and resid <= 1e-30

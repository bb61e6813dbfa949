import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from chns import assembly as asm
from chns.fem import build_space, interpolate
from chns.linsolve import Planar
from chns.mesh import Mesh, build_uniform_mesh
from chns.scheme import Params, build_operators


@pytest.fixture(scope="module")
def forms4(spaces4_module):
    p1, _, p2v = spaces4_module
    return asm.assemble_forms(p1, p2v)


@pytest.fixture(scope="module")
def spaces4_module():
    mesh = build_uniform_mesh(4, 4)
    return build_space(mesh, "p1"), build_space(mesh, "p2"), build_space(mesh, "p2vec")


def single_reference_triangle():
    # unit right triangle with the legs on the axes
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    edges = np.array([[0, 1], [0, 2], [1, 2]])
    edge_tris = np.array([[0, -1], [0, -1], [0, -1]])
    return Mesh(vertices=vertices, triangles=tris, edges=edges, edge_triangles=edge_tris,
                boundary_vertices=np.array([0, 1, 2]), boundary_edges=np.array([0, 1, 2]),
                h=np.sqrt(2.0))


def test_p1_element_mass_matrix():
    p1 = build_space(single_reference_triangle(), "p1")
    m = asm.assemble_mass(p1).toarray()
    area = 0.5
    expect = area / 12.0 * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert np.allclose(m, expect, atol=1e-15)


def test_p1_element_stiffness_matrix():
    p1 = build_space(single_reference_triangle(), "p1")
    k = asm.assemble_stiffness(p1).toarray()
    expect = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])
    assert np.allclose(k, expect, atol=1e-15)


def test_mass_total_is_domain_area(spaces4_module):
    p1, p2, _ = spaces4_module
    assert asm.assemble_mass(p1).sum() == pytest.approx(1.0, abs=1e-13)
    assert asm.assemble_mass(p2).sum() == pytest.approx(1.0, abs=1e-13)


def test_mass_positive_definite(spaces4_module):
    p1, _, p2v = spaces4_module
    rng = np.random.default_rng(11)
    for space in (p1, p2v):
        m = asm.assemble_mass(space)  # for p2v, the block of each component
        for _ in range(10):
            x = rng.standard_normal(m.shape[0])
            assert x @ (m @ x) > 0.0


def test_stiffness_kernel_and_positivity(spaces4_module):
    p1, _, p2v = spaces4_module
    k1 = asm.assemble_stiffness(p1)
    assert np.abs(k1 @ np.ones(p1.ndofs)).max() <= 1e-13
    kv = Planar(asm.assemble_stiffness(p2v))
    const = interpolate(p2v, lambda x, y: (np.full_like(x, 1.7), np.full_like(x, -0.3)))
    assert np.abs(kv @ const).max() <= 1e-13
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.standard_normal(p1.ndofs)
        assert x @ (k1 @ x) >= -1e-13


def test_symmetry(forms4):
    for a in (forms4.m_p1, forms4.k_p1, forms4.m_p2, forms4.k_p2):
        scale = np.abs(a.data).max()
        diff = (a - a.T).tocoo()
        asym = np.abs(diff.data).max() if diff.nnz else 0.0
        assert asym <= 1e-13 * scale


def test_assembly_order_invariance():
    mesh = build_uniform_mesh(4, 4)
    p1 = build_space(mesh, "p1")
    k = asm.assemble_stiffness(p1).toarray()

    rng = np.random.default_rng(0)
    perm = rng.permutation(mesh.num_triangles)
    shuffled = Mesh(vertices=mesh.vertices.copy(), triangles=mesh.triangles[perm].copy(),
                    edges=mesh.edges.copy(), edge_triangles=mesh.edge_triangles.copy(),
                    boundary_vertices=mesh.boundary_vertices.copy(),
                    boundary_edges=mesh.boundary_edges.copy(), h=mesh.h)
    k2 = asm.assemble_stiffness(build_space(shuffled, "p1")).toarray()
    assert np.abs(k - k2).max() <= 1e-13 * np.abs(k).max()


def test_load_zero_and_constant(spaces4_module):
    p1, _, _ = spaces4_module
    z = asm.assemble_load(p1, lambda x, y: np.zeros_like(x))
    assert np.abs(z).max() == 0.0
    l1 = asm.assemble_load(p1, lambda x, y: np.ones_like(x))
    m = asm.assemble_mass(p1)
    assert np.allclose(l1, np.asarray(m.sum(axis=1)).ravel(), atol=1e-14)


def test_load_linear_against_high_degree_rule(spaces4_module):
    p1, _, _ = spaces4_module
    a = asm.assemble_load(p1, lambda x, y: x)
    oracle = asm.assemble_load(p1, lambda x, y: x, degree=8)
    assert np.abs(a - oracle).max() <= 1e-12


def test_convective_scalar_examples(spaces4_module):
    p1, _, p2v = spaces4_module
    phi = interpolate(p1, lambda x, y: x)
    zero_u = np.zeros(p2v.ndofs)
    assert np.abs(asm.convective_load_scalar(p2v, p1, zero_u, phi)).max() == 0.0
    u = interpolate(p2v, lambda x, y: (np.ones_like(x), np.zeros_like(x)))
    const_phi = np.full(p1.ndofs, 2.5)
    assert np.abs(asm.convective_load_scalar(p2v, p1, u, const_phi)).max() <= 1e-15
    got = asm.convective_load_scalar(p2v, p1, u, phi)
    expect = asm.assemble_load(p1, lambda x, y: np.ones_like(x))
    assert np.allclose(got, expect, atol=1e-13)


def test_convective_scalar_dimension_mismatch(spaces4_module):
    p1, _, p2v = spaces4_module
    with pytest.raises(ValueError):
        asm.convective_load_scalar(p2v, p1, np.zeros(3), np.zeros(p1.ndofs))


def test_convective_vector_examples(spaces4_module):
    _, _, p2v = spaces4_module
    assert np.abs(asm.convective_load_vector(p2v, np.zeros(p2v.ndofs))).max() == 0.0
    const = interpolate(p2v, lambda x, y: (np.full_like(x, 0.8), np.full_like(x, -1.2)))
    assert np.abs(asm.convective_load_vector(p2v, const)).max() <= 1e-14
    u = interpolate(p2v, lambda x, y: (x, -y))
    got = asm.convective_load_vector(p2v, u)
    expect = asm.assemble_load(p2v, lambda x, y: (x, y))
    assert np.allclose(got, expect, atol=1e-13)


def test_convective_bilinearity(spaces4_module):
    p1, _, p2v = spaces4_module
    rng = np.random.default_rng(21)
    u1, u2 = rng.standard_normal((2, p2v.ndofs))
    phi1, phi2 = rng.standard_normal((2, p1.ndofs))
    a, b = 0.7, -1.3
    lhs = asm.convective_load_scalar(p2v, p1, a * u1 + b * u2, phi1)
    rhs = a * asm.convective_load_scalar(p2v, p1, u1, phi1) \
        + b * asm.convective_load_scalar(p2v, p1, u2, phi1)
    assert np.allclose(lhs, rhs, atol=1e-12)
    lhs = asm.convective_load_scalar(p2v, p1, u1, a * phi1 + b * phi2)
    rhs = a * asm.convective_load_scalar(p2v, p1, u1, phi1) \
        + b * asm.convective_load_scalar(p2v, p1, u1, phi2)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_mu_grad_phi_bilinearity(spaces4_module):
    p1, _, p2v = spaces4_module
    rng = np.random.default_rng(33)
    mu1, mu2, phi = rng.standard_normal((3, p1.ndofs))
    a, b = 1.4, -0.6
    lhs = asm.mu_grad_phi_load(p2v, p1, a * mu1 + b * mu2, phi)
    rhs = a * asm.mu_grad_phi_load(p2v, p1, mu1, phi) \
        + b * asm.mu_grad_phi_load(p2v, p1, mu2, phi)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_mu_grad_phi_examples(spaces4_module):
    p1, _, p2v = spaces4_module
    phi = interpolate(p1, lambda x, y: x)
    assert np.abs(asm.mu_grad_phi_load(p2v, p1, np.zeros(p1.ndofs), phi)).max() == 0.0
    const_phi = np.full(p1.ndofs, -2.0)
    mu = np.ones(p1.ndofs)
    assert np.abs(asm.mu_grad_phi_load(p2v, p1, mu, const_phi)).max() <= 1e-15
    got = asm.mu_grad_phi_load(p2v, p1, mu, phi)
    expect = asm.assemble_load(p2v, lambda x, y: (np.ones_like(x), np.zeros_like(x)))
    assert np.allclose(got, expect, atol=1e-13)


def test_fprime_load_examples(spaces4_module):
    p1, _, _ = spaces4_module
    eps, gamma = 0.04, 1.0
    assert np.abs(asm.fprime_load(p1, np.zeros(p1.ndofs), eps, gamma)).max() == 0.0
    row_sums = np.asarray(asm.assemble_mass(p1).sum(axis=1)).ravel()
    plus = asm.fprime_load(p1, np.ones(p1.ndofs), eps, gamma)
    assert np.allclose(plus, -gamma * row_sums, atol=1e-14)
    minus = asm.fprime_load(p1, -np.ones(p1.ndofs), eps, gamma)
    assert np.allclose(minus, gamma * row_sums, atol=1e-14)
    assert np.allclose(plus, -minus, atol=1e-14)


def test_grad_p_examples(forms4, spaces4_module):
    p1, _, p2v = spaces4_module
    assert np.abs(asm.grad_p_load(forms4, np.zeros(p1.ndofs))).max() == 0.0
    assert np.abs(asm.grad_p_load(forms4, np.full(p1.ndofs, 4.0))).max() <= 1e-13
    got = asm.grad_p_load(forms4, interpolate(p1, lambda x, y: x))
    expect = asm.assemble_load(p2v, lambda x, y: (np.ones_like(x), np.zeros_like(x)))
    assert np.allclose(got, expect, atol=1e-13)


def test_div_load_examples(forms4, spaces4_module):
    p1, _, p2v = spaces4_module
    assert np.abs(asm.div_load(forms4, np.zeros(p2v.ndofs))).max() == 0.0
    solenoidal = interpolate(p2v, lambda x, y: (x, -y))
    assert np.abs(asm.div_load(forms4, solenoidal)).max() <= 1e-12
    got = asm.div_load(forms4, interpolate(p2v, lambda x, y: (x, np.zeros_like(x))))
    expect = asm.assemble_load(p1, lambda x, y: np.ones_like(x))
    assert np.allclose(got, expect, atol=1e-13)


def test_grad_div_duality(forms4, spaces4_module):
    p1, _, p2v = spaces4_module
    interior = np.setdiff1d(np.arange(p2v.ndofs), p2v.boundary_dofs)
    mismatch = (forms4.div_coupling.T + forms4.grad_coupling).tocsr()[interior, :]
    assert (np.abs(mismatch.data).max() if mismatch.nnz else 0.0) <= 1e-12


def test_apply_dirichlet_examples():
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    op = asm.DirichletOperator(a, np.array([0]))
    b2 = op.prepare_rhs(np.array([0.0, 5.0]), np.array([1.0]))
    x = np.linalg.solve(op.matrix.toarray(), b2)
    assert x == pytest.approx([1.0, (5.0 - 1.0) / 2.0])
    assert np.allclose(op.matrix.toarray(), op.matrix.toarray().T)

    op = asm.DirichletOperator(sp.identity(4, format="csr"), np.array([1, 2]))
    assert np.allclose(op.matrix.toarray(), np.eye(4))
    assert np.allclose(op.prepare_rhs(np.arange(4.0), np.array([9.0, 8.0])), [0.0, 9.0, 8.0, 3.0])


def test_apply_dirichlet_zero_values(spaces4_module):
    p1, _, _ = spaces4_module
    k = asm.assemble_stiffness(p1)
    b = asm.assemble_load(p1, lambda x, y: np.ones_like(x))
    dofs = p1.boundary_dofs
    op = asm.DirichletOperator(k, dofs)
    for b2 in (op.prepare_rhs(b), op.prepare_rhs(b, np.zeros(len(dofs)))):
        x = np.linalg.solve(op.matrix.toarray(), b2)
        assert np.abs(x[dofs]).max() == 0.0


@pytest.mark.parametrize("nx,ny,rect", oracles.SETUP_SHAPES)
def test_forms_and_elimination_match_kron_and_coo_oracles(nx, ny, rect):
    mesh = build_uniform_mesh(nx, ny, rect)
    p1, p2v = build_space(mesh, "p1"), build_space(mesh, "p2vec")
    forms = asm.assemble_forms(p1, p2v)
    ref_mesh = oracles.loop_uniform_mesh(nx, ny, rect)
    ref = oracles.assemble_forms_by_hand(oracles.dict_space(ref_mesh, "p1"),
                                         oracles.dict_space(ref_mesh, "p2vec"))
    for name in ("m_p1", "k_p1", "m_p2", "k_p2", "grad_coupling", "div_coupling", "lumped_p1"):
        assert oracles.identical(getattr(forms, name), getattr(ref, name)), name
    # a planar velocity product is the block-diagonal kron(I_2, block) one, bit for bit
    x = np.random.default_rng(nx).standard_normal(p2v.ndofs)
    for block in (forms.m_p2, forms.k_p2):
        assert (Planar(block) @ x).tobytes() == (oracles.kron_planar(block) @ x).tobytes()
    for space in (p1, build_space(mesh, "p2"), p2v):
        for degree in (5, 8):
            tab = asm._tables(space, degree)
            assert oracles.identical(asm._basis_gradients(tab),
                                     oracles.broadcast_basis_gradients(tab))

    params = Params()
    ops = build_operators(p1, p2v, params, forms)
    a_v = (ref.m_p2 / params.tau + params.nu * ref.k_p2).tocsr()
    dofs = p2v.boundary_dofs
    for op, a in ((ops.velocity, a_v), (ops.projection, ref.m_p2)):
        # eliminating the vector operator's boundary rows leaves kron(I_2, eliminated block)
        vector = oracles.kron_planar(a)
        assert oracles.identical(oracles.kron_planar(op.matrix.block),
                                 oracles.coo_eliminated_matrix(vector, dofs))
        assert oracles.identical(oracles.kron_planar(op._columns.block),
                                 vector[:, dofs].tocsr())


def test_elimination_matches_coo_oracle_on_any_input():
    base = sp.random(12, 12, density=0.4, random_state=3, format="csr")
    # every entry split in two, columns descending: duplicates, unsorted
    row = np.repeat(np.arange(12), np.diff(base.indptr))
    twice = np.repeat(np.lexsort((-base.indices, row)), 2)
    split = sp.csr_matrix((base.data[twice] / 2, base.indices[twice], 2 * base.indptr),
                          shape=(12, 12))
    assert not split.has_canonical_format
    integer = sp.csr_matrix(np.random.default_rng(5).integers(-3, 4, (12, 12)))
    for a in (base, split, integer):
        for dofs in (np.array([7, 2, 11]), np.array([], dtype=np.int64), np.arange(12)):
            got = asm.DirichletOperator(a, dofs).matrix
            assert oracles.identical(got, oracles.coo_eliminated_matrix(a, dofs))


def test_discrete_energies_examples(spaces4_module):
    p1, _, p2v = spaces4_module
    m_v = Planar(asm.assemble_mass(p2v))
    prm = Params(gamma=1.0, c1=1.0, c2=0.1, eps=0.04)
    e1, e2 = asm.compute_discrete_energies(p1, m_v, np.ones(p1.ndofs),
                                           np.zeros(p2v.ndofs), prm)
    assert e1 == pytest.approx(0.5, abs=1e-12)   # G(1)=0, -(gamma/2) + c1
    assert e2 == pytest.approx(0.1, abs=1e-15)

    prm2 = Params(gamma=1.0, c1=0.1, c2=0.1, eps=0.04)
    e1, _ = asm.compute_discrete_energies(p1, m_v, np.zeros(p1.ndofs),
                                          np.zeros(p2v.ndofs), prm2)
    assert e1 == pytest.approx(1.0 / (4 * 0.04 ** 2) + 0.1, rel=1e-12)  # 156.35


def test_discrete_energies_rejects_nonpositive(spaces4_module):
    p1, _, p2v = spaces4_module
    m_v = Planar(asm.assemble_mass(p2v))
    prm = Params(gamma=10.0, c1=0.05, c2=0.1, eps=10.0)  # G tiny, -gamma/2 phi^2 dominates
    with pytest.raises(asm.NonpositiveEnergyError):
        asm.compute_discrete_energies(p1, m_v, np.ones(p1.ndofs), np.zeros(p2v.ndofs), prm)


def test_norms_examples():
    mesh = build_uniform_mesh(32, 32)
    p1 = build_space(mesh, "p1")

    def f(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    coeffs = interpolate(p1, f)
    assert asm.l2_error(p1, coeffs, f) <= 5e-3  # interpolation error only
    assert asm.l2_error(p1, np.zeros(p1.ndofs)) == 0.0
    # without a reference, the norm: |sin sin|_{L2} = 1/2, and the
    # interpolant's norm carries the O(h^2) defect
    assert asm.l2_error(p1, coeffs) == pytest.approx(0.5, abs=1e-3)

    p2 = build_space(mesh, "p2")
    c2 = interpolate(p2, f)
    assert asm.l2_error(p2, c2) == pytest.approx(0.5, abs=1e-6)


def test_error_of_in_space_reference():
    mesh = build_uniform_mesh(6, 6)
    p1 = build_space(mesh, "p1")

    def f(x, y):
        return 2.0 * x - 0.5 * y + 1.0

    def g(x, y):
        return (np.full_like(x, 2.0), np.full_like(x, -0.5))

    coeffs = interpolate(p1, f)
    assert asm.l2_error(p1, coeffs, f) <= 1e-12
    assert asm.h1_error(p1, coeffs, f, g) <= 1e-12


# -- the BLAS kernels against their einsum forms ---------------------------


@pytest.fixture(scope="module")
def jittered_spaces():
    """Spaces on a mesh whose interior vertices are moved, so every triangle
    has its own inverse Jacobian."""
    mesh = build_uniform_mesh(5, 5)
    interior = np.setdiff1d(np.arange(mesh.num_vertices), mesh.boundary_vertices)
    vertices = mesh.vertices.copy()
    vertices[interior] += np.random.default_rng(11).uniform(-0.04, 0.04, (interior.size, 2))
    jittered = Mesh(vertices=vertices, triangles=mesh.triangles.copy(),
                    edges=mesh.edges.copy(), edge_triangles=mesh.edge_triangles.copy(),
                    boundary_vertices=mesh.boundary_vertices.copy(),
                    boundary_edges=mesh.boundary_edges.copy(), h=mesh.h)
    geom = asm._geometry(jittered)
    assert geom["det"].min() > 0.0
    assert len(np.unique(geom["inv"].round(12), axis=0)) == jittered.num_triangles
    return {kind: build_space(jittered, kind) for kind in ("p1", "p2", "p2vec")}


def _relative_gap(got, want):
    assert got.shape == want.shape
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("degree", [5, 8])
@pytest.mark.parametrize("kind", ["p1", "p2", "p2vec"])
def test_field_evaluation_matches_einsum_oracle(jittered_spaces, kind, degree):
    space = jittered_spaces[kind]
    coeffs = np.random.default_rng(3).standard_normal(space.ndofs)
    tab = asm._tables(space, degree)
    values = asm._values(space, coeffs, tab)            # (nt, ncomp, nq)
    gradients = asm._gradients(space, coeffs, tab)      # (nt, ncomp, 2, nq)
    if space.ncomp == 1:
        pairs = [(values[:, 0], oracles.einsum_eval_scalar),
                 (gradients[:, 0].transpose(0, 2, 1), oracles.einsum_eval_scalar_grad)]
    else:
        pairs = [(values.transpose(0, 2, 1), oracles.einsum_eval_vector),
                 (gradients.transpose(0, 3, 1, 2), oracles.einsum_eval_vector_grad)]
    for fast, oracle in pairs:
        assert _relative_gap(fast, oracle(space, coeffs, degree)) <= 1e-13


def _reference_fields(ncomp):
    """An analytic field and its gradient, in the layouts the norms take."""
    def f(x, y):
        return np.exp(x) * np.cos(3.0 * y)

    def grad_f(x, y):
        return np.exp(x) * np.cos(3.0 * y), -3.0 * np.exp(x) * np.sin(3.0 * y)

    if ncomp == 1:
        return f, grad_f

    def g(x, y):
        return x * y - 0.3

    def vector(x, y):
        return f(x, y), g(x, y)

    def vector_grad(x, y):
        return grad_f(x, y), (y, x)

    return vector, vector_grad


@pytest.mark.parametrize("reference", [False, True], ids=["norm", "error"])
@pytest.mark.parametrize("kind", ["p1", "p2", "p2vec"])
def test_error_norms_match_einsum_oracle(jittered_spaces, kind, reference):
    space = jittered_spaces[kind]
    coeffs = np.random.default_rng(4).standard_normal(space.ndofs)
    exact, exact_grad = _reference_fields(space.ncomp) if reference else (None, None)
    for fast, oracle, ref in [(asm.l2_error, oracles.einsum_l2_error, exact),
                              (asm.h1_seminorm_error, oracles.einsum_h1_seminorm_error,
                               exact_grad)]:
        want = oracle(space, coeffs, ref)
        assert abs(fast(space, coeffs, ref) - want) <= 1e-13 * want


@pytest.mark.parametrize("degree", [5, 8])
@pytest.mark.parametrize("kind", ["p1", "p2", "p2vec"])
def test_assemble_load_matches_einsum_oracle(jittered_spaces, kind, degree):
    space = jittered_spaces[kind]
    if space.ncomp == 1:
        def f(x, y):
            return np.exp(x) * np.cos(3.0 * y)
    else:
        def f(x, y):
            return np.exp(x) * np.cos(3.0 * y), x * y - 0.3
    assert _relative_gap(asm.assemble_load(space, f, degree),
                         oracles.einsum_assemble_load(space, f, degree)) <= 1e-13


def test_nonlinear_loads_match_einsum_oracle(jittered_spaces):
    p1, p2v = jittered_spaces["p1"], jittered_spaces["p2vec"]
    rng = np.random.default_rng(17)
    u = rng.standard_normal(p2v.ndofs)
    phi, mu = rng.standard_normal((2, p1.ndofs))
    cases = [
        (asm.convective_load_scalar(p2v, p1, u, phi),
         oracles.einsum_convective_load_scalar(p2v, p1, u, phi)),
        (asm.convective_load_vector(p2v, u), oracles.einsum_convective_load_vector(p2v, u)),
        (asm.mu_grad_phi_load(p2v, p1, mu, phi), oracles.einsum_mu_grad_phi_load(p2v, p1, mu, phi)),
        (asm.fprime_load(p1, phi, 0.04, 1.0), oracles.einsum_fprime_load(p1, phi, 0.04, 1.0)),
    ]
    for fast, oracle in cases:
        assert _relative_gap(fast, oracle) <= 1e-13

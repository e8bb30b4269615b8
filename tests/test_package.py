import importlib
import inspect
import pkgutil

import unigraph as ug


def test_package_exports_every_module_name():
    # each library module's __all__ is the one list of its public names
    modules = [m.name for m in pkgutil.iter_modules(ug.__path__) if m.name != "cli"]
    assert {"digraphs", "errors", "groups", "membership"} <= set(modules)
    for name in modules:
        module = importlib.import_module(f"unigraph.{name}")
        missing = [x for x in module.__all__ if getattr(ug, x, None) is not getattr(module, x)]
        assert not missing, (name, missing)


def test_graph_library_routines_are_gone():
    # no verb and no decision path called these; the tests keep their own
    # fixtures and oracles in conftest
    gone = (
        "neighborhood",
        "diameter",
        "cycle_factor",
        "perfect_two_matching",
        "TwoMatching",
        "automorphism_group",
        "AutomorphismReport",
        "induced_subdigraph",
        "block_double",
        "star_graph",
        "claw_graph",
        "paw_graph",
        "k33_minus_edge",
        "Permutation",
        "complementary",
        "first_noncomplementary_pair",
        "pairwise_complementary",
        "regular_representation",
        "matrix_from_jsonable",
        "graph_canonical_mask",
        "_CANONICAL_CAP",
        "cyclic_group",
        "product_of_cyclics",
        "boolean_cube_group",
        "dihedral_group",
        "symmetric_group",
        "explicit_group",
        "hypercube_weighing",
        "HYPERCUBE_SEED",
        "HYPERCUBE_LOOPED_SEED",
    )
    assert [name for name in gone if hasattr(ug, name)] == []
    for module in (ug.digraphs, ug.matrices, ug.groups, ug.linedigraphs, ug.membership):
        assert [name for name in gone if hasattr(module, name)] == []
    assert not hasattr(ug.digraphs, "_embeddings") and not hasattr(ug.digraphs, "_check_vertices")
    methods = (
        (ug.Digraph, ("out_degree", "in_degree", "is_regular", "arcs", "edges", "out_neighbors",
                      "in_neighbors", "has_loops")),
        (ug.FiniteGroup, ("is_abelian", "element_order", "generates")),
        (ug.Multidigraph, ("arcs",)),
    )
    assert [(cls.__name__, m) for cls, names in methods for m in names if hasattr(cls, m)] == []
    assert list(inspect.signature(ug.hamiltonian_cycle).parameters) == ["D"]
    # every group is built from a spec, against the one table cap
    assert list(inspect.signature(ug.build_group).parameters) == ["spec"]

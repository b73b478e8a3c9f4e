import pytest

from kfractal.kgraph import KGraph

from shipped import shipped


@pytest.fixture(scope="session")
def g_s1():
    """1-graph: one vertex, three loops."""
    return shipped("s1").graph


@pytest.fixture(scope="session")
def g_p2():
    """2-graph: one vertex, 2 + 2 loops, flip squares."""
    return shipped("p2").graph


@pytest.fixture(scope="session")
def g_t0():
    """2-graph: one vertex, one loop per color."""
    return shipped("t0").graph


@pytest.fixture(scope="session")
def g_f3():
    """3-graph: one vertex, one loop per color, flip squares."""
    return shipped("f3").graph


@pytest.fixture(scope="session")
def g_two_vertex():
    """2-graph on two vertices; maps between them keep the squares nontrivial.

    Color-1 edges: u->u loop and an edge u<-w; color-2 likewise, so every
    vertex receives both colors and mixed squares need actual bookkeeping.
    """
    edges = {
        1: [("p_uu", "u", "u"), ("p_uw", "u", "w"), ("p_wu", "w", "u"), ("p_ww", "w", "w")],
        2: [("q_uu", "u", "u"), ("q_uw", "u", "w"), ("q_wu", "w", "u"), ("q_ww", "w", "w")],
    }
    # pair (e, f) composable iff s(e) = r(f); route the rewritten word through
    # the other intermediate vertex when possible to make squares non-flip
    squares = {}
    by_ends_1 = {("u", "u"): "p_uu", ("u", "w"): "p_uw", ("w", "u"): "p_wu", ("w", "w"): "p_ww"}
    by_ends_2 = {("u", "u"): "q_uu", ("u", "w"): "q_uw", ("w", "u"): "q_wu", ("w", "w"): "q_ww"}
    table = {}
    for (r1, s1), e in by_ends_1.items():
        for (r2, s2), f in by_ends_2.items():
            if s1 != r2:
                continue
            # e f : r1 -> s2 via s1; rewrite as f2 e2 via the other vertex
            mid = "u" if s1 == "w" else "w"
            f2 = by_ends_2[(r1, mid)]
            e2 = by_ends_1[(mid, s2)]
            table[(e, f)] = (f2, e2)
    squares[(1, 2)] = table
    return KGraph(2, ["u", "w"], edges, squares)

"""The verifier's child search and aggregation check against the loops
they replaced, kept verbatim here as oracles.

``children_of`` walks the closed neighborhood in place and
``check_mapping_hash`` finds a node's children once for both
aggregates; both must return what the old per-call
``LocalView.neighbors`` walk and per-field search returned — or raise
the same exception — on arbitrary prover messages.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import LocalView
from repro.network.spanning_tree import FIELD_PARENT, children_of
from repro.protocols._tree_hash import FIELD_A, FIELD_B, check_aggregate


def _children_of_oracle(view, round_idx, root, parent_field=FIELD_PARENT):
    v = view.node
    result = []
    for u in view.neighbors:
        if u == root:
            continue
        msg = view.message_of(round_idx, u)
        if msg.get(parent_field) == v:
            result.append(u)
    return result


def _check_aggregate_oracle(view, tree_round, value_round, root, field,
                            own_term, p):
    own_value = view.own_message(value_round)[field]
    if not isinstance(own_value, int) or not 0 <= own_value < p:
        return False
    total = own_term % p
    for u in _children_of_oracle(view, tree_round, root):
        child_value = view.message_of(value_round, u)[field]
        if not isinstance(child_value, int) or not 0 <= child_value < p:
            return False
        total = (total + child_value) % p
    return own_value == total


def _outcome(run):
    """What ``run()`` returns, or the type of what it raises."""
    try:
        return ("returned", run())
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return ("raised", type(exc))


_P = 11

#: A field value: a residue, a near miss of the range, or not an int
#: (None: the field is absent).
_VALUES = st.one_of(st.integers(min_value=0, max_value=_P - 1),
                    st.sampled_from([None, -1, _P, _P + 1, "3", 2.0, True,
                                     (1,)]))


@st.composite
def _views(draw):
    """A node's view with arbitrary messages: parent and aggregate
    fields missing, out of range or not ints, and a root anywhere,
    often among the neighbors.  Protocol 1 reads parents and
    aggregates in two rounds, Protocol 2 in one."""
    n = draw(st.integers(min_value=2, max_value=8))
    node = draw(st.integers(min_value=0, max_value=n - 1))
    others = draw(st.sets(st.integers(min_value=0, max_value=n - 1),
                          min_size=1))
    closed = tuple(sorted(others | {node}))
    root = draw(st.one_of(st.sampled_from(closed),
                          st.integers(min_value=0, max_value=n - 1)))
    tree_round, value_round = draw(st.sampled_from([(0, 2), (1, 1)]))
    messages = {tree_round: {}, value_round: {}}
    for u in closed:
        # A child of the node (an int or an equal float), another
        # vertex or a non-vertex, a non-int, or no parent field.
        parent = draw(st.sampled_from(
            [node, float(node), draw(st.sampled_from(closed)), n, -1,
             "0", None]))
        tree_message = messages[tree_round].setdefault(u, {})
        if parent is not None:
            tree_message[FIELD_PARENT] = parent
        value_message = messages[value_round].setdefault(u, {})
        for field in (FIELD_A, FIELD_B):
            value = draw(_VALUES)
            if value is not None:
                value_message[field] = value
    view = LocalView(node=node, n=n, closed_neighborhood=closed,
                     node_input=None, randomness={}, messages=messages)
    return view, root, tree_round, value_round


class TestChildSearchAndAggregateCheck:
    @settings(max_examples=400, deadline=None)
    @given(case=_views())
    def test_children_match_the_neighbors_walk(self, case):
        view, root, tree_round, _ = case
        assert _outcome(lambda: children_of(view, tree_round, root)) \
            == _outcome(lambda: _children_of_oracle(view, tree_round,
                                                    root))

    @settings(max_examples=400, deadline=None)
    @given(case=_views(),
           terms=st.tuples(st.integers(min_value=0, max_value=3 * _P),
                           st.integers(min_value=0, max_value=3 * _P)),
           balanced=st.tuples(st.booleans(), st.booleans()))
    def test_one_child_search_checks_both_aggregates(self, case, terms,
                                                     balanced):
        view, root, tree_round, value_round = case
        values = view.messages[value_round]
        children = children_of(view, tree_round, root)
        for field, term, balance in zip((FIELD_A, FIELD_B), terms,
                                        balanced):
            if balance:
                # The node's value that the check accepts when every
                # child value is in range, so accepting paths and
                # near misses (a child value of p) come up often.
                values[view.node][field] = (term + sum(
                    values[u][field] % _P for u in children
                    if isinstance(values[u].get(field), int))) % _P
            assert _outcome(lambda: check_aggregate(
                view, value_round, field, term, children, _P)) \
                == _outcome(lambda: _check_aggregate_oracle(
                    view, tree_round, value_round, root, field, term, _P))
        # Both fields in a row, as check_mapping_hash runs them.
        a_term, b_term = terms
        assert _outcome(lambda: check_aggregate(
            view, value_round, FIELD_A, a_term, children, _P)
            and check_aggregate(view, value_round, FIELD_B, b_term,
                                children, _P)) \
            == _outcome(lambda: _check_aggregate_oracle(
                view, tree_round, value_round, root, FIELD_A, a_term, _P)
                and _check_aggregate_oracle(
                    view, tree_round, value_round, root, FIELD_B, b_term,
                    _P))

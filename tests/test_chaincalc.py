import copy
import json
import pickle
import re

import pytest

from nestlab import (
    ATTAINED,
    COUNTABLE,
    INFINITE,
    LIMIT,
    UNCOUNTABLE,
    AbstractNest,
    AbstractSupportFn,
    ChainError,
    ChainNode,
    DocumentError,
    LimitGapError,
    MissingEndpointError,
    NonzeroAtZeroError,
    NotEssentialError,
    PairAdmissibilityError,
    PInfinityError,
    PPropertyError,
    SupportPair,
    WorkbenchDoc,
    check_essential,
    check_left_continuous,
    check_p_infinity,
    check_p_property,
    check_pair,
    document_payload,
    lower_regularization,
    parse_document,
    predict_m0,
    predict_m0_pair,
    predict_max_pair,
    predict_me_support,
    validate_chain,
)
from nestlab import cli
from nestlab.suites import _replay, sweep_chains, sweep_maps


def dense_chain():
    # every interior node is a two-sided limit with countable marks
    inner = dict(
        below=LIMIT, cofinality=COUNTABLE, above=LIMIT, coinitiality=COUNTABLE
    )
    return AbstractNest((
        ChainNode("0", above=LIMIT, coinitiality=COUNTABLE),
        ChainNode("A", **inner),
        ChainNode("B", **inner),
        ChainNode("C", **inner),
        ChainNode("X", below=LIMIT, cofinality=COUNTABLE),
    ))


def finite_chain():
    # all jumps attained and one-dimensional
    return AbstractNest((
        ChainNode("0", above=ATTAINED),
        ChainNode("A", below=ATTAINED, gap=1, above=ATTAINED),
        ChainNode("X", below=ATTAINED, gap=1),
    ))


def infinite_chain():
    return AbstractNest((
        ChainNode("0", above=ATTAINED),
        ChainNode("A", below=ATTAINED, gap=INFINITE, above=ATTAINED),
        ChainNode("X", below=ATTAINED, gap=INFINITE),
    ))


def on_attained(chain, *value):
    # a map on a chain without limits from below, which takes no left limits
    return AbstractSupportFn(chain, value, (None,) * len(value))


# --- chain validation ----------------------------------------------------------

def test_chain_needs_endpoints():
    with pytest.raises(MissingEndpointError):
        validate_chain([ChainNode("0")])
    with pytest.raises(MissingEndpointError):
        validate_chain([
            ChainNode("A", above=ATTAINED),
            ChainNode("X", below=ATTAINED, gap=1),
        ])


def test_limit_node_rejects_jump():
    with pytest.raises(LimitGapError):
        validate_chain([
            ChainNode("0", above=ATTAINED),
            ChainNode("X", below=LIMIT, gap=1, cofinality=COUNTABLE),
        ])


def test_annotations_are_mandatory():
    with pytest.raises(ChainError):
        validate_chain([ChainNode("0", above=ATTAINED), ChainNode("X")])
    with pytest.raises(ChainError):
        validate_chain([ChainNode("0"), ChainNode("X", below=ATTAINED, gap=1)])
    with pytest.raises(ChainError):
        validate_chain([
            ChainNode("0", above=ATTAINED),
            ChainNode("X", below=ATTAINED, gap=0),
        ])


ZERO = ChainNode("0", above=ATTAINED)
TOP = ChainNode("X", below=ATTAINED, gap=1)


@pytest.mark.parametrize("nodes, error, message", [
    ([ZERO, ChainNode("Y", below=ATTAINED, gap=1)],
     MissingEndpointError, 'the chain must end at a node labelled "X"'),
    ([ChainNode("0", below=ATTAINED, gap=1, above=ATTAINED), TOP],
     ChainError, 'node "0" takes no below annotation'),
    ([ZERO, ChainNode("A", below=ATTAINED, gap=1, cofinality=COUNTABLE, above=ATTAINED), TOP],
     ChainError, "attained node 'A' takes no cofinality mark"),
    ([ZERO, ChainNode("A", below=LIMIT, above=ATTAINED), TOP],
     ChainError, "node 'A' needs a cofinality mark"),
    ([ZERO, ChainNode("X", below=ATTAINED, gap=1, above=ATTAINED)],
     ChainError, 'node "X" takes no above annotation'),
    ([ZERO, ChainNode("A", below=ATTAINED, gap=1, above=ATTAINED, coinitiality=COUNTABLE),
      TOP],
     ChainError, "attained node 'A' takes no coinitiality mark"),
    ([ZERO, ChainNode("A", below=ATTAINED, gap=1, above=LIMIT), TOP],
     ChainError, "node 'A' needs a coinitiality mark"),
    # a bool gap would serialize as "gap": true, which the parser rejects
    ([ZERO, ChainNode("A", below=ATTAINED, gap=True, above=ATTAINED), TOP],
     ChainError, "node 'A' needs a positive or infinite jump dimension"),
    ([ZERO, ChainNode("A", below=ATTAINED, gap=1.0, above=ATTAINED), TOP],
     ChainError, "node 'A' needs a positive or infinite jump dimension"),
    # a label that is not a string would serialize as a document the parser
    # rejects
    ([ZERO, ChainNode(5, below=ATTAINED, gap=1, above=ATTAINED), TOP],
     ChainError, "node at index 1 needs a string label, not 5"),
    ([ChainNode(0, above=ATTAINED), TOP],
     ChainError, "node at index 0 needs a string label, not 0"),
])
def test_chain_validation_names_the_fault(nodes, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        validate_chain(nodes)


def quotient_dim(chain, i, j):
    # the dimension of node j over node i < j, summed along the
    # presentation: a limit node or an infinite jump after i makes it infinite
    total = 0
    for node in chain.nodes[i + 1:j + 1]:
        if node.below == LIMIT or node.gap == INFINITE:
            return INFINITE
        total += node.gap
    return total


def test_quotient_dim_sums_jumps():
    chain = finite_chain()
    assert quotient_dim(chain, 0, 2) == 2
    assert quotient_dim(chain, 1, 1) == 0
    assert quotient_dim(infinite_chain(), 0, 1) == INFINITE
    assert quotient_dim(dense_chain(), 0, 4) == INFINITE


def test_finite_stratum():
    assert finite_chain().finite_stratum == (1, 2)
    assert infinite_chain().finite_stratum == ()
    assert dense_chain().finite_stratum == ()


# --- maps and regularization -----------------------------------------------------

def dense_phi():
    # 0 A B C X  ->  0 A X X X, with left limits A B X X at A B C X
    return AbstractSupportFn(dense_chain(), (0, 1, 4, 4, 4), (None, 1, 2, 4, 4))


@pytest.mark.parametrize("chain, value, left_limit, message", [
    (dense_chain, (0, 1, 2, 3), (None, 1, 2, 3), "map tables must cover every node exactly once"),
    (dense_chain, (0, 1, 2, 3, 4), (None, 1, 2, 3),
     "map tables must cover every node exactly once"),
    (dense_chain, (0, 1, 2, 3, 5), (None, 1, 2, 3, 4), "value index 5 is out of range"),
    (dense_chain, (0, 1, 2, 3, 4), (None, 1, 7, 3, 4), "left limit index 7 is out of range"),
    (finite_chain, (0, 1, 2), (None, 1, None),
     "node 'A' is attained from below and takes no left limit"),
    # a float index could not label a node, and a bool would not serialize
    (dense_chain, (0, True, 2, 3, 4), (None, 1, 2, 3, 4), "value index True is not an integer"),
    (dense_chain, (0, 1.0, 2, 3, 4), (None, 1, 2, 3, 4), "value index 1.0 is not an integer"),
    (dense_chain, (0, 1, 2, 3, 4), (None, True, 2, 3, 4),
     "left limit index True is not an integer"),
    (dense_chain, (0, 1, 2, 3, 4), (None, 1.0, 2, 3, 4),
     "left limit index 1.0 is not an integer"),
])
def test_map_tables_name_the_fault(chain, value, left_limit, message):
    with pytest.raises(ChainError, match=f"^{re.escape(message)}$"):
        AbstractSupportFn(chain(), value, left_limit)


def dense_step():
    # 0 A B C X  ->  0 0 0 X X, with left limits 0 0 X X at A B C X
    return AbstractSupportFn(dense_chain(), (0, 0, 0, 4, 4), (None, 0, 0, 4, 4))


def test_map_tables_validate():
    chain = dense_chain()
    with pytest.raises(ChainError, match="^value table is not monotone$"):
        AbstractSupportFn(chain, (1, 0, 2, 4, 4), (None, 0, 2, 4, 4))
    with pytest.raises(ChainError, match="^left limit at 'B' must sit between"):
        # B's left limit is X, above the value A at B
        AbstractSupportFn(chain, (0, 1, 1, 4, 4), (None, 1, 4, 4, 4))
    with pytest.raises(ChainError, match="^limit node 'X' needs a left limit$"):
        AbstractSupportFn(chain, (0, 1, 2, 4, 4), (None, 1, 2, 4, None))


# what the parser reports for each fault of a map's label tables, keyed by the
# table, the key and the repr of the target it is given (None deletes the key)
PARSER_MESSAGES = {
    ("value", "Q", "'X'"): "unknown node 'Q' in value table",
    ("value", "A", "'Q'"): "unknown node 'Q' in value table",
    ("value", "A", "['A']"): "unknown node ['A'] in value table",
    ("value", "X", "None"): "value table misses nodes ['X']",
    ("left_limit", "Y", "'B'"): "unknown node 'Y' in left_limit table",
    ("left_limit", "B", "1"): "left limit at 'B' is 1, not a node label",
    ("left_limit", "B", "'Z'"): "left limit at 'B' names 'Z', which is not a chain node",
}


@pytest.mark.parametrize("table, key, target", [
    ("value", "Q", "X"),  # a key that is no node
    ("value", "A", "Q"),  # a target that is no node
    ("value", "A", ["A"]),  # a target that is no string
    ("value", "X", None),  # a node the table misses
    ("left_limit", "Y", "B"),  # a key that is no node
    ("left_limit", "B", 1),  # a target that is no string
    ("left_limit", "B", "Z"),  # a target that is no node: the join is not represented
])
def test_from_labels_reports_what_the_parser_reports(table, key, target):
    """Label tables resolve to index tables only in the parser.  A fault is a
    DocumentError with its message at the path of the map it sits in."""
    message = PARSER_MESSAGES[table, key, repr(target)]
    step = dense_step()
    for path in ("abstract_fn", "abstract_pair.psi"):
        payload = document_payload(WorkbenchDoc(
            chain=dense_chain(), abstract_fn=dense_phi(), abstract_pair=SupportPair(step, step)
        ))
        tables = payload
        for field in path.split("."):
            tables = tables[field]
        if target is None:
            del tables[table][key]
        else:
            tables[table][key] = target
        with pytest.raises(DocumentError) as parsed:
            parse_document(json.dumps(payload))
        assert type(parsed.value) is DocumentError and parsed.value.path == path
        assert str(parsed.value) == f"{path}: {message}"


def test_the_label_map_is_not_a_field():
    chain, fresh = dense_chain(), dense_chain()
    assert AbstractNest.FIELDS == ("nodes",)
    before = (repr(chain), hash(chain))
    f = AbstractSupportFn(chain, (0, 1, 4, 4, 4), (None, 1, 2, 4, 4))
    assert (repr(chain), hash(chain)) == before and "label_index" not in repr(chain)
    assert chain.label_index == {"0": 0, "A": 1, "B": 2, "C": 3, "X": 4}
    assert chain == fresh and hash(chain) == hash(fresh) and repr(chain) == repr(fresh)
    assert list(chain.label_index) == [node.label for node in chain.nodes]
    for back in (pickle.loads(pickle.dumps(chain)), copy.deepcopy(chain)):
        assert back == chain == fresh and hash(back) == hash(fresh) and repr(back) == repr(chain)
        assert list(back.label_index.items()) == list(chain.label_index.items())
        assert AbstractSupportFn(back, f.value, f.left_limit) == f


def test_a_chain_built_from_a_list_equals_the_tuple_built_one():
    chain = dense_chain()
    listed = AbstractNest(list(chain.nodes))
    assert listed == chain and hash(listed) == hash(chain)
    assert listed.nodes == chain.nodes and isinstance(listed.nodes, tuple)
    phi = dense_step()
    psi = AbstractSupportFn(listed, phi.value, phi.left_limit)
    assert psi == phi and hash(psi) == hash(phi)
    assert SupportPair(phi, psi) == SupportPair(phi, phi)


def test_a_value_table_built_from_a_list_equals_the_tuple_built_one():
    f = dense_phi()
    listed = AbstractSupportFn(f.chain, list(f.value), f.left_limit)
    assert listed == f and hash(listed) == hash(f)
    assert listed.value == f.value and isinstance(listed.value, tuple)


def test_a_left_limit_table_built_from_a_list_equals_the_tuple_built_one():
    f = dense_phi()
    listed = AbstractSupportFn(f.chain, f.value, list(f.left_limit))
    assert listed == f and hash(listed) == hash(f)
    assert listed.left_limit == f.left_limit and isinstance(listed.left_limit, tuple)
    assert lower_regularization(listed) == lower_regularization(f)


def test_left_continuity_reads_the_declared_table():
    assert not check_left_continuous(dense_phi())
    assert check_left_continuous(dense_step())


def test_regularization_drops_to_left_limits():
    reg = lower_regularization(dense_phi())
    # nodes 0, A, B, C, X: C now goes to X, as its left limit does
    assert reg.value == (0, 1, 2, 4, 4)
    assert reg.left_limit == (None, 1, 2, 4, 4)
    assert check_left_continuous(reg)
    assert lower_regularization(reg) == reg


def test_regularization_fixes_left_continuous_maps():
    step = dense_step()
    assert lower_regularization(step) == step


def test_regularization_is_identity_on_attained_chains():
    chain = finite_chain()
    f = on_attained(chain, 0, 2, 2)
    assert lower_regularization(f) == f


# --- essential and pair axioms ----------------------------------------------------

def test_essential_on_dense_chain():
    assert check_essential(dense_step())
    assert check_essential(dense_phi())


def test_essential_fails_in_finite_stratum():
    chain = finite_chain()
    ident = on_attained(chain, 0, 1, 2)
    # value A sits in the finite stratum but is not fixed from above
    assert not check_essential(ident)
    const = on_attained(chain, 2, 2, 2)
    assert check_essential(const)


def test_essential_needs_equal_values_at_finite_distance():
    chain = finite_chain()
    f = on_attained(chain, 0, 2, 2)
    # 0 and A are one dimension apart yet map to different nodes
    assert not check_essential(f)


def in_finite_stratum(chain, v):
    # stated from the annotations: an attained jump of finite dimension
    node = chain.nodes[v]
    return node.below == ATTAINED and node.gap != INFINITE


def pairwise_essential(f):
    # the definition as stated: values in the finite stratum are fixed from
    # above (the top node by the empty-meet convention, any other node when
    # it is marked as a limit from above), and every two nodes a finite
    # dimension apart share their value
    chain = f.chain
    k = len(chain)
    fixed = all(
        v == k - 1 or chain.nodes[v].above == LIMIT
        for v in f.value
        if in_finite_stratum(chain, v)
    )
    stable = all(
        f.value[i] == f.value[j]
        for i in range(k)
        for j in range(i + 1, k)
        if quotient_dim(chain, i, j) < INFINITE
    )
    return fixed and stable


def test_essential_matches_the_pairwise_definition():
    verdicts = []
    for chain in sweep_chains(3):
        for f in sweep_maps(chain):
            verdict = check_essential(f)
            assert verdict == pairwise_essential(f), _replay("chain-check essential", abstract_fn=f)
            verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)


def sweep_pairs(max_nodes):
    """Every admissible (phi, psi) on the chains of sweep_chains(max_nodes)."""
    for chain in sweep_chains(max_nodes):
        maps = list(sweep_maps(chain))
        for phi in maps:
            for psi in maps:
                try:
                    yield SupportPair(phi, psi)
                except PairAdmissibilityError:
                    pass


def test_pair_check_matches_the_definition():
    # psi essential, and strictly below phi wherever psi lands in the finite stratum
    def strictly_below(p):
        chain = p.psi.chain
        return all(
            v < u for v, u in zip(p.psi.value, p.phi.value) if in_finite_stratum(chain, v)
        )

    rejected_as_inessential = 0
    for p in sweep_pairs(3):
        essential, strict = pairwise_essential(p.psi), strictly_below(p)
        replay = _replay("chain-check pair", chain=p.psi.chain, abstract_pair=p)
        assert check_pair(p) == (essential and strict), replay
        rejected_as_inessential += strict and not essential
    assert rejected_as_inessential


def test_pair_validation():
    step = dense_step()
    pair = SupportPair(step, step)
    assert check_pair(pair)
    with pytest.raises(PairAdmissibilityError):
        SupportPair(dense_phi(), step)  # phi not left continuous
    ident = AbstractSupportFn(dense_chain(), (0, 1, 2, 3, 4), (None, 1, 2, 3, 4))
    with pytest.raises(PairAdmissibilityError):
        SupportPair(step, ident)  # psi exceeds phi
    on_finite = AbstractSupportFn(finite_chain(), (0, 1, 2), (None, None, None))
    with pytest.raises(PairAdmissibilityError,
                       match="^pair components live on different chains$"):
        SupportPair(on_finite, AbstractSupportFn(infinite_chain(), (0, 1, 2), (None,) * 3))


def test_p_property_marks():
    assert check_p_property(dense_chain())
    uncount = AbstractNest((
        ChainNode("0", above=ATTAINED),
        ChainNode("X", below=LIMIT, cofinality=UNCOUNTABLE),
    ))
    assert not check_p_property(uncount)
    uncountable_above = AbstractNest((
        ChainNode("0", above=LIMIT, coinitiality=UNCOUNTABLE),
        ChainNode("X", below=LIMIT, cofinality=COUNTABLE),
    ))
    assert not check_p_property(uncountable_above)
    assert check_p_property(finite_chain())


def test_p_infinity():
    assert check_p_infinity(infinite_chain())
    assert check_p_infinity(dense_chain())
    assert not check_p_infinity(finite_chain())


def test_each_chain_fact_is_read_where_its_owner_keeps_it():
    # the finite stratum the chain keeps, and the limits from below a map's
    # left-limit table marks, against the node annotations; the two P-infinity
    # verdicts the CLI prints come from one definition
    maps = 0
    for chain in sweep_chains(4):
        finite = tuple(i for i in range(len(chain)) if in_finite_stratum(chain, i))
        assert chain.finite_stratum == finite, chain
        doc = WorkbenchDoc(chain=chain)
        validated = cli.run("chain-validate", doc).result
        checked = cli.run("chain-check", doc, "p-infinity").result
        assert validated["p_infinity"] is checked["result"] is (not finite), chain
        limits = tuple(node.below == LIMIT for node in chain.nodes)
        for f in sweep_maps(chain):
            assert tuple(ll is not None for ll in f.left_limit) == limits, f
            assert lower_regularization(f).left_limit == f.left_limit, f
            maps += 1
    assert maps


# --- guarded predictions ------------------------------------------------------------

def test_predict_me_support_guards():
    step = dense_step()
    assert predict_me_support(step) == step
    uncount = AbstractNest((
        ChainNode("0", above=ATTAINED),
        ChainNode("X", below=LIMIT, cofinality=UNCOUNTABLE),
    ))
    g = AbstractSupportFn(uncount, (0, 1), (None, 1))
    with pytest.raises(PPropertyError):
        predict_me_support(g)
    chain = finite_chain()
    ident = on_attained(chain, 0, 1, 2)
    with pytest.raises(NotEssentialError):
        predict_me_support(ident)


def test_predict_max_pair_guards():
    step = dense_step()
    pair = SupportPair(step, step)
    assert predict_max_pair(pair) == pair
    uncount = AbstractNest((
        ChainNode("0", above=ATTAINED),
        ChainNode("X", below=LIMIT, cofinality=UNCOUNTABLE),
    ))
    g = AbstractSupportFn(uncount, (0, 1), (None, 1))
    # admissible, since the finite stratum is empty, but not countably approached
    assert check_pair(SupportPair(g, g))
    with pytest.raises(PPropertyError):
        predict_max_pair(SupportPair(g, g))
    flat = on_attained(finite_chain(), 0, 2, 2)
    with pytest.raises(PairAdmissibilityError):
        predict_max_pair(SupportPair(flat, flat))


def test_predict_m0():
    out = predict_m0(dense_phi())
    assert out.phi == out.psi == lower_regularization(dense_phi())
    assert check_pair(out)
    chain = finite_chain()
    f = on_attained(chain, 0, 1, 2)
    with pytest.raises(PInfinityError):
        predict_m0(f)
    g = on_attained(infinite_chain(), 1, 1, 2)
    with pytest.raises(NonzeroAtZeroError):
        predict_m0(g)


def test_predict_m0_pair():
    step = dense_step()
    pair = SupportPair(step, step)
    out = predict_m0_pair(pair)
    assert out.phi == step
    assert out.psi == lower_regularization(step)
    chain = finite_chain()
    ident = on_attained(chain, 0, 1, 2)
    zero = on_attained(chain, 0, 0, 2)
    with pytest.raises(PInfinityError):
        predict_m0_pair(SupportPair(ident, zero))


def test_every_pair_on_a_p_infinity_chain_is_admissible():
    # the finite stratum is empty, so check_pair has nothing to reject:
    # predict_m0_pair needs no admissibility guard after its P-infinity guard
    pairs = [p for p in sweep_pairs(3) if check_p_infinity(p.phi.chain)]
    assert pairs
    for p in pairs:
        assert check_pair(p)
        out = predict_m0_pair(p)
        assert out.phi == p.phi and out.psi == lower_regularization(p.psi)

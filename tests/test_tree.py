import pytest

from cvmkit.tree import (
    TreeFormatError,
    TreeNode,
    UnknownNodeError,
    ValueTree,
    parse_tree_spec,
    path_to_root,
    serialize_tree,
    validate_tree,
)

SMALL = """\
# a comment
tree: demo
root: value

node: value | Value | root | quality price
node: quality | Quality | driver | speed accuracy
node: speed | Speed | attribute |
node: accuracy | Accuracy | attribute |
node: price | Price | driver | fees rates
node: fees | Fees | attribute |
node: rates | Rates | attribute |
"""


def test_parse_small_tree():
    tree = parse_tree_spec(SMALL)
    assert tree.name == "demo"
    assert tree.root == "value"
    assert len(tree.nodes) == 7
    assert tree.node("quality").label == "Quality"
    assert tree.node("quality").kind == "driver"
    assert tree.children_of("value") == ("quality", "price")
    assert tree.is_leaf("fees")
    assert not tree.is_leaf("price")


def test_preorder_follows_declaration_order():
    tree = parse_tree_spec(SMALL)
    assert list(tree.preorder()) == [
        "value", "quality", "speed", "accuracy", "price", "fees", "rates",
    ]
    assert tree.internal_nodes() == ["value", "quality", "price"]
    assert tree.leaves() == ["speed", "accuracy", "fees", "rates"]


def test_depth_and_contains():
    tree = parse_tree_spec(SMALL)
    assert tree.depth("value") == 0
    assert tree.depth("quality") == 1
    assert tree.depth("rates") == 2
    assert "speed" in tree
    assert "bogus" not in tree


def test_serialize_round_trips_exactly():
    tree = parse_tree_spec(SMALL)
    text = serialize_tree(tree)
    assert parse_tree_spec(text) == tree
    assert serialize_tree(parse_tree_spec(text)) == text
    assert text.endswith("\n")


def test_path_to_root():
    tree = parse_tree_spec(SMALL)
    assert path_to_root(tree, "fees") == ["fees", "price", "value"]
    assert path_to_root(tree, "value") == ["value"]
    with pytest.raises(UnknownNodeError):
        path_to_root(tree, "nope")


def test_duplicate_id_names_first_declaration_line():
    doc = SMALL + "node: fees | Fees Again | attribute |\n"
    with pytest.raises(TreeFormatError) as err:
        parse_tree_spec(doc)
    assert "fees" in str(err.value)
    assert "line" in str(err.value)


def test_unknown_kind_rejected():
    doc = SMALL.replace("| driver |", "| pillar |", 1)
    with pytest.raises(TreeFormatError) as err:
        parse_tree_spec(doc)
    assert "pillar" in str(err.value)


def test_wrong_field_count_rejected():
    with pytest.raises(TreeFormatError) as err:
        parse_tree_spec("tree: t\nroot: a\nnode: a | A | root\n")
    assert "line 3" in str(err.value)


def test_dangling_child_rejected():
    doc = SMALL.replace("fees rates", "fees rates ghost")
    with pytest.raises(TreeFormatError) as err:
        parse_tree_spec(doc)
    assert "ghost" in str(err.value)


def test_two_parents_rejected():
    doc = SMALL.replace("node: price | Price | driver | fees rates",
                        "node: price | Price | driver | fees rates speed")
    with pytest.raises(TreeFormatError) as err:
        parse_tree_spec(doc)
    assert "speed" in str(err.value)


def test_leaf_must_be_attribute_kind():
    doc = SMALL.replace("node: rates | Rates | attribute |",
                        "node: rates | Rates | subprocess |")
    with pytest.raises(TreeFormatError):
        parse_tree_spec(doc)


def test_single_child_internal_rejected():
    doc = """\
tree: t
root: a
node: a | A | root | b
node: b | B | attribute |
"""
    with pytest.raises(TreeFormatError) as err:
        parse_tree_spec(doc)
    assert "child" in str(err.value)


def test_missing_root_declaration():
    with pytest.raises(TreeFormatError):
        parse_tree_spec("tree: t\nnode: a | A | root |\n")


def test_validate_tree_reports_cycle():
    # Built by hand: the parser would never admit this.
    nodes = {
        "a": TreeNode("a", "A", "root", ("b", "c")),
        "b": TreeNode("b", "B", "driver", ("a", "c")),
        "c": TreeNode("c", "C", "attribute", ()),
    }
    violations = validate_tree(ValueTree(name="t", root="a", nodes=nodes))
    rules = {v.rule for v in violations}
    assert "cycle" in rules or "multiple-parents" in rules


def test_validate_tree_reports_unreachable():
    nodes = {
        "a": TreeNode("a", "A", "root", ("b", "c")),
        "b": TreeNode("b", "B", "attribute", ()),
        "c": TreeNode("c", "C", "attribute", ()),
        "z": TreeNode("z", "Z", "attribute", ()),
    }
    violations = validate_tree(ValueTree(name="t", root="a", nodes=nodes))
    assert any(v.rule == "unreachable" and v.node == "z" for v in violations)


_OFF_THE_TREE = ValueTree(name="t", root="a", nodes={
    "a": TreeNode("a", "A", "root", ("b", "c")),
    "b": TreeNode("b", "B", "attribute", ()),
    "c": TreeNode("c", "C", "attribute", ()),
    "z": TreeNode("z", "Z", "attribute", ()),
    "x": TreeNode("x", "X", "driver", ("y",)),
    "y": TreeNode("y", "Y", "driver", ("x",)),
})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda tree: tree.node("ghost"), "unknown node id: 'ghost'"),
        (lambda tree: path_to_root(tree, "z"), "node 'z' is not connected to the root 'a'"),
        (lambda tree: path_to_root(tree, "x"), "cycle encountered walking up from 'x'"),
    ],
    ids=["unknown-id", "disconnected", "cycle"],
)
def test_each_walk_off_the_tree_is_refused(call, message):
    with pytest.raises(UnknownNodeError) as err:
        call(_OFF_THE_TREE)
    assert str(err.value) == message



def test_attribute_with_children_is_violation():
    nodes = {
        "a": TreeNode("a", "A", "root", ("b", "c")),
        "b": TreeNode("b", "B", "attribute", ("c",)),
        "c": TreeNode("c", "C", "attribute", ()),
    }
    violations = validate_tree(ValueTree(name="t", root="a", nodes=nodes))
    assert any(v.rule == "attribute-with-children" for v in violations)


def test_bundled_tree_is_valid(tree):
    assert validate_tree(tree) == []
    assert len(tree.leaves()) == 20
    assert tree.root == "worth_what_paid_for"


_TWO_LEAVES = "node: a | A | root | b c\nnode: b | B | attribute |\nnode: c | C | attribute |\n"


@pytest.mark.parametrize(
    "doc, message, line",
    [
        ("tree: t\nroot: a\nnonsense\n" + _TWO_LEAVES,
         "expected 'key: value', got 'nonsense'", 3),
        ("tree: t\ntree: u\n", "duplicate 'tree:' directive", 2),
        ("tree: t\nroot: a\nroot: b\n", "duplicate 'root:' directive", 3),
        ("# comment\ntree:\n", "'tree:' requires a name", 2),
        ("tree: t\nroot:  \n", "'root:' requires a node id", 2),
        ("tree: t\nroot: a\nnode:  | A | root | b c\n", "node id is empty", 3),
        ("tree: t\nleaf: a\n", "unknown directive 'leaf'", 2),
        ("root: a\n" + _TWO_LEAVES, "missing 'tree:' directive", None),
        ("tree: t\nroot: a\n", "document defines no nodes", None),
        ("tree: t\nroot: z\n" + _TWO_LEAVES,
         "invalid tree: missing-root: root pointer 'z' names no node", None),
        (SMALL.replace("| root |", "| driver |"),
         "invalid tree: root-kind: root node has kind 'driver', expected 'root'", None),
        (SMALL.replace("| Quality | driver |", "| Quality | root |"),
         "invalid tree: extra-root: 'quality' has kind 'root' but is not the root", None),
        (SMALL.replace("fees rates", "fees rates fees"),
         "invalid tree: repeated-child: 'price' lists a child twice", None),
        (SMALL.replace("fees rates", "fees rates speed"),
         "invalid tree: multiple-parents: 'speed' has 2 parents", None),
    ],
    ids=["no-colon", "duplicate-tree", "duplicate-root", "tree-without-name",
         "root-without-id", "empty-node-id", "unknown-directive", "missing-tree", "no-nodes",
         "missing-root", "root-kind", "extra-root", "repeated-child", "shared-child"],
)
def test_each_tree_spec_diagnostic_names_its_line(doc, message, line):
    with pytest.raises(TreeFormatError) as err:
        parse_tree_spec(doc)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")

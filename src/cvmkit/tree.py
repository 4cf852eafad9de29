"""Customer value trees.

A value tree is the question hierarchy behind a customer-value survey: one
root ("worth what paid for"), driver nodes beneath it (quality, price, and
optionally others such as brand image), sub-process nodes beneath those, and
rated leaf attributes at the bottom.  Each respondent scores every node 1-10;
every internal node later gets its own driver regression, so the tree is the
spine that the survey store, the model fitter, and all reporting share.

Trees are defined in a small line-oriented text format that is stable under
diff and round-trips exactly::

    # comment
    tree: Automobile purchase
    root: worth_what_paid_for
    node: worth_what_paid_for | Worth What Paid For | root | quality price
    node: quality | Quality | driver | automobile delivery_process
    node: reliability | Reliability | attribute |

One ``node:`` line per node with four ``|``-separated fields: id, display
label, kind, and whitespace-separated child ids (empty for leaves).  Kinds are
closed: ``root``, ``driver``, ``subprocess``, ``attribute``; ``attribute``
means leaf and only leaves may be attributes.  ``parse_tree_spec`` admits only
structurally valid trees; ``validate_tree`` exposes its structural rules
(root, references, parents, reachability, leaf kinds) for programmatically
built trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping

from .errors import CvmError

__all__ = [
    "NODE_KINDS",
    "TreeNode",
    "ValueTree",
    "Violation",
    "TreeFormatError",
    "UnknownNodeError",
    "parse_tree_spec",
    "serialize_tree",
    "validate_tree",
    "path_to_root",
]

NODE_KINDS = ("root", "driver", "subprocess", "attribute")


class TreeFormatError(CvmError):
    """Raised for syntactically or structurally invalid tree documents."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownNodeError(CvmError):
    """Raised when a node id is not part of the tree."""


@dataclass(frozen=True)
class TreeNode:
    id: str
    label: str
    kind: str
    children: tuple[str, ...] = ()


@dataclass(frozen=True)
class Violation:
    """One structural rule breach found by :func:`validate_tree`."""

    rule: str
    node: str | None
    message: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.message}"


@dataclass(frozen=True)
class ValueTree:
    """An immutable value tree; ``nodes`` preserves declaration order."""

    name: str
    root: str
    nodes: Mapping[str, TreeNode] = field(default_factory=dict)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.nodes

    def node(self, node_id: str) -> TreeNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node id: {node_id!r}") from None

    def children_of(self, node_id: str) -> tuple[str, ...]:
        return self.node(node_id).children

    def is_leaf(self, node_id: str) -> bool:
        return not self.node(node_id).children

    @cached_property
    def _walk(self) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
        """(preorder, internal nodes, leaves) from the tree's one walk.

        ``cached_property`` writes the instance ``__dict__``, which the frozen
        dataclass's ``__setattr__`` does not guard.
        """
        order: list[str] = []
        seen: set[str] = set()
        stack = [self.root]
        while stack:
            node_id = stack.pop()
            if node_id in seen or node_id not in self.nodes:
                continue
            seen.add(node_id)
            order.append(node_id)
            stack.extend(reversed(self.nodes[node_id].children))
        internal = tuple(n for n in order if self.nodes[n].children)
        leaves = tuple(n for n in order if not self.nodes[n].children)
        return tuple(order), internal, leaves

    def preorder(self) -> Iterator[str]:
        """Depth-first ids from the root, children in declared order."""
        return iter(self._walk[0])

    def internal_nodes(self) -> list[str]:
        return list(self._walk[1])

    def leaves(self) -> list[str]:
        return list(self._walk[2])

    def parent_map(self) -> dict[str, str]:
        """child id -> parent id (first declared parent wins on broken trees)."""
        parents: dict[str, str] = {}
        for node in self.nodes.values():
            for child in node.children:
                parents.setdefault(child, node.id)
        return parents

    def depth(self, node_id: str) -> int:
        """Edges between ``node_id`` and the root (root has depth 0)."""
        return len(path_to_root(self, node_id)) - 1


def parse_tree_spec(text: str) -> ValueTree:
    """Parse a tree document; raises :class:`TreeFormatError` on any defect.

    Errors carry the 1-based line number of the offending record where one
    exists.  A parsed tree always satisfies ``validate_tree(tree) == []``.
    """
    name: str | None = None
    root: str | None = None
    nodes: dict[str, TreeNode] = {}
    declared_lines: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, payload = line.partition(":")
        if not sep:
            raise TreeFormatError(f"expected 'key: value', got {line!r}", lineno)
        key = key.strip()
        payload = payload.strip()
        if key == "tree":
            if name is not None:
                raise TreeFormatError("duplicate 'tree:' directive", lineno)
            if not payload:
                raise TreeFormatError("'tree:' requires a name", lineno)
            name = payload
        elif key == "root":
            if root is not None:
                raise TreeFormatError("duplicate 'root:' directive", lineno)
            if not payload:
                raise TreeFormatError("'root:' requires a node id", lineno)
            root = payload
        elif key == "node":
            fields = [f.strip() for f in payload.split("|")]
            if len(fields) != 4:
                raise TreeFormatError(
                    f"node record needs 4 '|'-separated fields, got {len(fields)}",
                    lineno,
                )
            node_id, label, kind, children_field = fields
            if not node_id:
                raise TreeFormatError("node id is empty", lineno)
            if node_id in nodes:
                raise TreeFormatError(
                    f"duplicate node id {node_id!r} "
                    f"(first declared on line {declared_lines[node_id]})",
                    lineno,
                )
            if kind not in NODE_KINDS:
                raise TreeFormatError(
                    f"unknown kind {kind!r} (expected one of {', '.join(NODE_KINDS)})",
                    lineno,
                )
            children = tuple(children_field.split())
            nodes[node_id] = TreeNode(node_id, label or node_id, kind, children)
            declared_lines[node_id] = lineno
        else:
            raise TreeFormatError(f"unknown directive {key!r}", lineno)

    if name is None:
        raise TreeFormatError("missing 'tree:' directive")
    if root is None:
        raise TreeFormatError("missing 'root:' directive")
    if not nodes:
        raise TreeFormatError("document defines no nodes")

    tree = ValueTree(name=name, root=root, nodes=nodes)
    violations = validate_tree(tree)
    if violations:
        detail = "; ".join(str(v) for v in violations)
        raise TreeFormatError(f"invalid tree: {detail}")
    return tree


def serialize_tree(tree: ValueTree) -> str:
    """Canonical text form: preorder nodes, children in stored order.

    ``parse_tree_spec(serialize_tree(t))`` reproduces ``t`` exactly, and
    serializing again yields byte-identical text.
    """
    lines = [f"tree: {tree.name}", f"root: {tree.root}"]
    for node_id in tree.preorder():
        node = tree.nodes[node_id]
        children = " ".join(node.children)
        lines.append(f"node: {node.id} | {node.label} | {node.kind} | {children}")
    return "\n".join(lines) + "\n"


def validate_tree(tree: ValueTree) -> list[Violation]:
    """Structural rule check; the empty list means the tree is valid.

    Rules: the root directive names an existing node of kind ``root`` and no
    other node has that kind; every child reference resolves; every node has
    at most one parent; all nodes are reachable from the root and no cycle
    exists; ``attribute`` nodes are exactly the leaves; internal nodes have at
    least two children (a driver model needs two regressors to say anything).
    Unique ids and known kinds are the parser's checks, made with line numbers.
    """
    out: list[Violation] = []
    if tree.root not in tree.nodes:
        out.append(
            Violation("missing-root", None, f"root pointer {tree.root!r} names no node")
        )
        return out

    root_node = tree.nodes[tree.root]
    if root_node.kind != "root":
        out.append(
            Violation(
                "root-kind", tree.root, f"root node has kind {root_node.kind!r}, expected 'root'"
            )
        )
    for key, node in tree.nodes.items():
        if node.kind == "root" and key != tree.root:
            out.append(Violation("extra-root", key, f"{key!r} has kind 'root' but is not the root"))

    parent_count: dict[str, int] = {}
    for key, node in tree.nodes.items():
        for child in dict.fromkeys(node.children):  # a repeat is one parent, reported below
            if child not in tree.nodes:
                out.append(
                    Violation("dangling-child", key, f"{key!r} lists unknown child {child!r}")
                )
            else:
                parent_count[child] = parent_count.get(child, 0) + 1
        if len(set(node.children)) != len(node.children):
            out.append(Violation("repeated-child", key, f"{key!r} lists a child twice"))

    for child, count in parent_count.items():
        if count > 1:
            out.append(Violation("multiple-parents", child, f"{child!r} has {count} parents"))
    if tree.root in parent_count:
        out.append(Violation("root-has-parent", tree.root, "the root is listed as a child"))

    # Peel off every node whose parents are all peeled: what is left lies on
    # a cycle or below one.  A shared child is peeled with its last parent.
    unpeeled = dict(parent_count)
    ready = [key for key in tree.nodes if key not in parent_count]
    while ready:
        for child in set(tree.nodes[ready.pop()].children) & unpeeled.keys():
            unpeeled[child] -= 1
            if not unpeeled[child]:
                ready.append(child)
    if any(unpeeled.values()):
        out.append(Violation("cycle", None, "the children graph revisits a node"))

    reachable = set(tree.preorder())
    for key in tree.nodes:
        if key not in reachable:
            out.append(Violation("unreachable", key, f"{key!r} is not reachable from the root"))

    for key, node in tree.nodes.items():
        if node.children:
            if node.kind == "attribute":
                out.append(
                    Violation("attribute-with-children", key, f"attribute {key!r} has children")
                )
            if len(node.children) < 2:
                out.append(
                    Violation(
                        "degenerate-internal",
                        key,
                        f"internal node {key!r} has {len(node.children)} child; need >= 2",
                    )
                )
        elif node.kind != "attribute":
            out.append(
                Violation(
                    "leaf-kind", key, f"leaf {key!r} has kind {node.kind!r}, expected 'attribute'"
                )
            )
    return out


def path_to_root(tree: ValueTree, node_id: str) -> list[str]:
    """Ids from ``node_id`` up to and including the root.

    ``path_to_root(tree, root) == [root]``; unknown ids raise
    :class:`UnknownNodeError`.
    """
    if node_id not in tree.nodes:
        raise UnknownNodeError(f"unknown node id: {node_id!r}")
    parents = tree.parent_map()
    path = [node_id]
    current = node_id
    while current != tree.root:
        try:
            current = parents[current]
        except KeyError:
            raise UnknownNodeError(
                f"node {node_id!r} is not connected to the root {tree.root!r}"
            ) from None
        if current in path:
            raise UnknownNodeError(f"cycle encountered walking up from {node_id!r}")
        path.append(current)
    return path

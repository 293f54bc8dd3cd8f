"""Labeled binary trees: corpus parsing, synthesis, vocabulary, statistics.

Corpus lines are s-expressions in the classic sentiment-treebank style:
leaf = ``(L token)``, internal = ``(L child child)``, with L an integer
class label. Node indices are assigned in post-order, so ``range(n_nodes)``
already lists children before parents and doubles as the topological order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class ParseError(ValueError):
    """Malformed s-expression; carries the byte offset where parsing failed."""

    def __init__(self, msg: str, offset: int):
        super().__init__(f"{msg} (at byte {offset})")
        self.offset = offset


class CorpusError(ValueError):
    """One or more lines of a corpus file failed to parse."""


class Vocab:
    """Dense token <-> id bijection with a reserved unknown-token id."""

    UNK = "<unk>"

    def __init__(self):
        self.token_to_id: dict[str, int] = {self.UNK: 0}
        self.id_to_token: list[str] = [self.UNK]

    @property
    def unk_id(self) -> int:
        return 0

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def add(self, token: str) -> int:
        tid = self.token_to_id.get(token)
        if tid is None:
            tid = len(self.id_to_token)
            self.token_to_id[token] = tid
            self.id_to_token.append(token)
        return tid

    def lookup(self, token: str, grow: bool) -> int:
        if grow:
            return self.add(token)
        return self.token_to_id.get(token, self.unk_id)


@dataclass(frozen=True)
class TreeInstance:
    """One binary tree. Parallel per-node arrays indexed by node id.

    leaves hold a token id (children are -1); internal nodes hold child ids
    (token is -1). Indices are post-order: children always precede parents.
    """

    labels: tuple[int, ...]
    tokens: tuple[int, ...]  # -1 on internal nodes
    lefts: tuple[int, ...]  # -1 on leaves
    rights: tuple[int, ...]  # -1 on leaves
    root: int
    topo_order: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if not self.topo_order:
            object.__setattr__(self, "topo_order", tuple(range(len(self.labels))))

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    @property
    def n_leaves(self) -> int:
        return sum(1 for t in self.tokens if t >= 0)

    def is_leaf(self, i: int) -> bool:
        return self.tokens[i] >= 0


class _TreeBuilder:
    def __init__(self):
        self.labels: list[int] = []
        self.tokens: list[int] = []
        self.lefts: list[int] = []
        self.rights: list[int] = []

    def leaf(self, label: int, token_id: int) -> int:
        return self._push(label, token_id, -1, -1)

    def internal(self, label: int, left: int, right: int) -> int:
        return self._push(label, -1, left, right)

    def _push(self, label, token, left, right) -> int:
        self.labels.append(label)
        self.tokens.append(token)
        self.lefts.append(left)
        self.rights.append(right)
        return len(self.labels) - 1

    def done(self, root: int) -> TreeInstance:
        return TreeInstance(
            tuple(self.labels), tuple(self.tokens), tuple(self.lefts), tuple(self.rights), root
        )


def parse_sexpr(line: str, vocab: Vocab, grow: bool = False) -> TreeInstance:
    """Parse one tree. Iterative, so a tree of any depth parses: each open
    internal node waits on a stack for its children, and a node gets its id
    when its closing parenthesis is read, which numbers the nodes in
    post-order."""
    b = _TreeBuilder()
    n = len(line)
    # per open internal node: its label, and its left child's id once parsed
    open_nodes: list[list] = []

    def skip_ws(p: int) -> int:
        while p < n and line[p].isspace():
            p += 1
        return p

    p = 0
    while True:  # read one node's head at p; a leaf closes it
        p = skip_ws(p)
        if p >= n or line[p] != "(":
            raise ParseError("expected '('", p)
        p = skip_ws(p + 1)
        start = p
        while p < n and not line[p].isspace() and line[p] not in "()":
            p += 1
        try:
            label = int(line[start:p])
        except ValueError:
            raise ParseError(f"bad label {line[start:p]!r}", start) from None
        p = skip_ws(p)
        if p < n and line[p] == "(":
            open_nodes.append([label, None])
            continue
        start = p
        while p < n and not line[p].isspace() and line[p] not in "()":
            p += 1
        if p == start:
            raise ParseError("expected a token or a subtree", p)
        token = line[start:p]
        p = skip_ws(p)
        if p >= n or line[p] != ")":
            raise ParseError("expected ')' after leaf token", p)
        node, p = b.leaf(label, vocab.lookup(token, grow)), p + 1
        while open_nodes and open_nodes[-1][1] is not None:  # node was a right child
            label, left = open_nodes.pop()
            p = skip_ws(p)
            if p >= n:
                raise ParseError("expected ')'", p)
            if line[p] != ")":
                raise ParseError("internal node takes exactly two children", p)
            node, p = b.internal(label, left, node), p + 1
        if not open_nodes:
            break
        open_nodes[-1][1] = node  # node was a left child: the right one follows
        p = skip_ws(p)
        if p >= n or line[p] != "(":
            raise ParseError("internal node needs two subtree children", p)
    p = skip_ws(p)
    if p != n:
        raise ParseError("trailing content after tree", p)
    return b.done(node)


def serialize(t: TreeInstance, vocab: Vocab) -> str:
    """t as one line that `parse_sexpr` reads back. Iterative, so a tree of
    any depth serializes."""
    parts = []
    todo: list = [t.root]  # node ids to write and text to copy, last first
    while todo:
        i = todo.pop()
        if type(i) is str:
            parts.append(i)
        elif t.is_leaf(i):
            parts.append(f"({t.labels[i]} {vocab.id_to_token[t.tokens[i]]})")
        else:
            parts.append(f"({t.labels[i]} ")
            todo += [")", t.rights[i], " ", t.lefts[i]]
    return "".join(parts)


def load_corpus(path: str | Path, vocab: Vocab, grow: bool = False) -> list[TreeInstance]:
    out: list[TreeInstance] = []
    errors: list[str] = []
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                out.append(parse_sexpr(line, vocab, grow))
            except ParseError as e:
                errors.append(f"line {lineno}: {e}")
    if errors:
        raise CorpusError(f"{len(errors)} bad line(s):\n" + "\n".join(errors))
    return out


def generate_synthetic(
    shape: str,
    n_leaves: int,
    vocab_size: int,
    n_classes: int,
    rng: np.random.Generator,
) -> TreeInstance:
    """One random tree of the requested shape with content-derived labels.

    Leaf k draws a word ``t<w>`` with w uniform in [0, vocab_size); token ids
    follow ``synthetic_vocab`` (id = w + 1; 0 is the unk). A node's label is
    its subtree word sum mod n_classes, so the labeling is a function of the
    inputs and a model can actually learn it.
    """
    if n_leaves < 1:
        raise ValueError("n_leaves must be >= 1")
    if vocab_size < 1:
        raise ValueError("vocab_size must be >= 1")
    if n_classes < 1:
        raise ValueError("n_classes must be >= 1")
    if shape == "balanced" and n_leaves & (n_leaves - 1):
        raise ValueError(f"balanced shape needs a power-of-two leaf count, got {n_leaves}")
    if shape not in ("balanced", "moderate", "linear"):
        raise ValueError(f"unknown shape {shape!r}")

    b = _TreeBuilder()
    # Iterative, so a tree of any depth builds. A subtree of k > 1 leaves
    # draws its split, then builds its left subtree, its right one, and
    # itself (0 on `todo`), so the draws and the post-order node ids follow
    # a depth-first build.
    todo = [n_leaves]  # leaf counts of the subtrees to build, last first
    built = []  # (node id, subtree word sum) per subtree built and not yet joined
    while todo:
        k = todo.pop()
        if k == 0:
            right, rs = built.pop()
            left, ls = built.pop()
            built.append((b.internal((ls + rs) % n_classes, left, right), ls + rs))
        elif k == 1:
            w = int(rng.integers(0, vocab_size))
            built.append((b.leaf(w % n_classes, w + 1), w))
        else:
            if shape == "balanced":
                split = k // 2
            elif shape == "linear":
                split = k - 1
            else:
                split = int(rng.integers(1, k))
            todo += [0, k - split, split]
    return b.done(built[0][0])


def tree_stats(t: TreeInstance) -> dict[str, int]:
    n = t.n_nodes
    depth_of = [0] * n
    order = list(t.topo_order)
    for i in reversed(order):  # parents before children
        if not t.is_leaf(i):
            depth_of[t.lefts[i]] = depth_of[i] + 1
            depth_of[t.rights[i]] = depth_of[i] + 1
    width: dict[int, int] = {}
    for d in depth_of:
        width[d] = width.get(d, 0) + 1
    return {
        "n_nodes": n,
        "n_leaves": t.n_leaves,
        "depth": max(depth_of),
        "max_parallelism": max(width.values()),
    }


def generate_dataset(
    shape: str,
    n_leaves: int,
    count: int,
    vocab_size: int,
    n_classes: int,
    seed: int,
) -> list[TreeInstance]:
    rng = np.random.default_rng(seed)
    return [generate_synthetic(shape, n_leaves, vocab_size, n_classes, rng) for _ in range(count)]


def synthetic_vocab(vocab_size: int) -> Vocab:
    """Vocabulary whose token ``t<k>`` maps to id k+1 (id 0 stays the unk)."""
    v = Vocab()
    for k in range(vocab_size):
        v.add(f"t{k}")
    return v


def write_corpus(path: str | Path, instances: list[TreeInstance], vocab: Vocab) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for t in instances:
            f.write(serialize(t, vocab) + "\n")

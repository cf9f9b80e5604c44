"""Prefix tree over subword-tokenized biasing words, with cursor traversal.

The tree is built once per biasing list and shared read-only.  Each search
hypothesis carries a cursor that is a plain int: a node id (an in-progress
match of some biasing-word prefix, `ROOT_STATE` at a word boundary) or
`DETACHED_STATE` (the current in-progress word has left the tree; nothing is
valid until the next word boundary).  Segmentation is deterministic, so a
single cursor suffices — an in-progress word can match at most one tree
path.  `valid_set` returns the valid ids as a new ascending list; it is the
one place where valid-set order is decided.
"""

from __future__ import annotations

from .lexicon import SubwordVocab, tokenize_word

ROOT_STATE = 0
DETACHED_STATE = -1


class PrefixTree:
    """Trie over token sequences of accepted biasing words.

    children[i] is a dict subword-id -> child node id; node 0 is the root.
    A word ends on the edge of its word-final unit.
    """

    def __init__(self, word_final: tuple[bool, ...]):
        self.children: list[dict[int, int]] = [{}]
        self.word_final = word_final  # per lexical id, from the vocab


def build_tree(vocab: SubwordVocab, words) -> PrefixTree:
    """Build the trie for `words`; unsegmentable words are skipped.

    Duplicates collapse (set semantics).  An empty accepted set yields a
    single-root tree, which disables biasing downstream.
    """
    tree = PrefixTree(tuple(vocab._word_final))
    children = tree.children
    for word in sorted(set(words)):
        try:
            ids = tokenize_word(vocab, word).ids
        except ValueError:
            continue
        node = children[ROOT_STATE]
        for sid in ids:
            nxt = node.get(sid)
            if nxt is None:
                nxt = node[sid] = len(children)
                children.append({})
            node = children[nxt]
    return tree


def valid_set(tree: PrefixTree, state: int) -> list[int]:
    """Subword ids that extend the current in-progress biasing-word prefix,
    ascending."""
    if state == DETACHED_STATE:
        return []
    return sorted(tree.children[state])


def advance_state(tree: PrefixTree, state: int, emitted: int) -> int:
    """Cursor transition on an emitted lexical subword.

    On-tree moves follow the child edge; a word-final unit always returns
    to the root (word complete or abandoned at a boundary); an off-tree
    word-internal unit detaches until the next boundary.
    """
    if emitted >= len(tree.word_final) or emitted < 0:
        raise ValueError(f"non-lexical id {emitted} in tree traversal")
    final = tree.word_final[emitted]
    if state != DETACHED_STATE:
        child = tree.children[state].get(emitted)
        if child is not None:
            return ROOT_STATE if final else child
    return ROOT_STATE if final else DETACHED_STATE


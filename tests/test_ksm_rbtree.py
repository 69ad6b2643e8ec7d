"""Property and unit tests for the content-indexed red-black tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ksm.rbtree import ContentRBTree, RBNode


def _node(value, width=8):
    """A node whose 'page' is a small byte array around ``value``."""
    data = np.full(width, 0, dtype=np.uint8)
    # encode value big-endian so byte order == numeric order
    for i in range(width):
        data[width - 1 - i] = (value >> (8 * i)) & 0xFF
    return RBNode(lambda d=data: d, payload=value)


def _build(values):
    tree = ContentRBTree("t")
    for v in values:
        tree.insert(_node(v))
    return tree


class TestBasicOperations:
    def test_empty_tree(self):
        tree = ContentRBTree()
        assert len(tree) == 0
        assert tree.search(np.zeros(8, dtype=np.uint8)) is None
        tree.validate()

    def test_insert_and_search(self):
        tree = _build([5, 3, 8])
        node = tree.search(_node(3).key())
        assert node is not None and node.payload == 3
        assert tree.search(_node(9).key()) is None

    def test_duplicate_insert_returns_match(self):
        tree = _build([5])
        outcome = tree.insert(_node(5))
        assert outcome.match is not None
        assert len(tree) == 1

    def test_walk_records_costs(self):
        tree = _build([10, 5, 15])
        outcome = tree.walk(_node(5).key())
        assert outcome.match is not None
        assert outcome.comparisons >= 1
        assert outcome.bytes_compared > 0
        assert outcome.path

    def test_walk_miss_gives_insertion_point(self):
        tree = _build([10])
        outcome = tree.walk(_node(5).key())
        assert outcome.match is None
        assert outcome.parent is not None
        assert outcome.direction == "left"

    def test_insert_at_requires_miss(self):
        tree = _build([5])
        outcome = tree.walk(_node(5).key())
        with pytest.raises(ValueError):
            tree.insert_at(outcome, _node(5))

    def test_inorder_is_sorted(self):
        values = [9, 1, 7, 3, 5, 0, 8]
        tree = _build(values)
        assert [n.payload for n in tree] == sorted(values)

    def test_reset(self):
        tree = _build([1, 2, 3])
        tree.reset()
        assert len(tree) == 0
        tree.validate()

    def test_remove_leaf_root_internal(self):
        tree = _build([10, 5, 15, 3, 7])
        for target in (3, 10, 5):
            node = tree.search(_node(target).key())
            tree.remove(node)
            tree.validate()
        assert sorted(n.payload for n in tree) == [7, 15]


class TestBreadthFirstLevels:
    def test_levels_from_root(self):
        tree = _build(list(range(7)))
        nodes, children = tree.breadth_first(tree.root, len(tree))
        assert nodes[0] is tree.root
        assert len(nodes) == 7
        assert {id(n) for n in nodes} == {id(n) for n in tree}
        assert children == [tree.children(n) for n in nodes]
        # Children come out in BFS order: the k-th one is node k.
        in_order = [c for pair in children for c in pair if c is not None]
        assert in_order == nodes[1:]

    def test_max_levels_limits(self):
        tree = _build(list(range(31)))
        root = tree.root
        nodes, children = tree.breadth_first(root, 3)
        # A cap of 3 nodes takes exactly the first two levels.
        assert nodes == [root, *tree.children(root)]
        assert children == [tree.children(n) for n in nodes]
        # Sequential inserts leave the right subtree the larger one.
        nodes, _children = tree.breadth_first(root.right, 10)
        assert len(nodes) == 10 and nodes[0] is root.right
        assert tree.breadth_first(root, 0) == ([], [])

    def test_empty_tree_levels(self):
        tree = ContentRBTree()
        assert tree.breadth_first(tree.root, 31) == ([], [])

    def test_children_none_for_leaf(self):
        tree = _build([1])
        left, right = tree.children(tree.root)
        assert left is None and right is None


@st.composite
def value_lists(draw):
    return draw(st.lists(st.integers(min_value=0, max_value=10_000),
                         min_size=0, max_size=120, unique=True))


class TestRBInvariants:
    @given(value_lists())
    @settings(max_examples=80, deadline=None)
    def test_inserts_preserve_invariants(self, values):
        tree = _build(values)
        tree.validate()
        assert len(tree) == len(values)
        assert [n.payload for n in tree] == sorted(values)

    @given(value_lists(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_interleaved_deletes_preserve_invariants(self, values, rnd):
        tree = _build(values)
        remaining = list(values)
        rnd.shuffle(remaining)
        to_delete = remaining[: len(remaining) // 2]
        for v in to_delete:
            node = tree.search(_node(v).key())
            assert node is not None
            tree.remove(node)
            tree.validate()
        expected = sorted(set(values) - set(to_delete))
        assert [n.payload for n in tree] == expected

    @given(value_lists())
    @settings(max_examples=40, deadline=None)
    def test_search_finds_every_inserted(self, values):
        tree = _build(values)
        for v in values:
            assert tree.search(_node(v).key()).payload == v

    @given(value_lists())
    @settings(max_examples=40, deadline=None)
    def test_height_is_logarithmic(self, values):
        """RB trees guarantee height <= 2*log2(n+1)."""
        if not values:
            return
        tree = _build(values)

        def height(node):
            if node is tree._nil:
                return 0
            return 1 + max(height(node.left), height(node.right))

        import math

        n = len(values)
        assert height(tree.root) <= 2 * math.log2(n + 1) + 1


class TestPageContentTree:
    """The tree over actual 4 KB pages, as KSM uses it."""

    def test_page_ordering(self, rng):
        pages = [rng.bytes_array(4096) for _ in range(20)]
        tree = ContentRBTree()
        for i, page in enumerate(pages):
            tree.insert(RBNode(lambda p=page: p, payload=i))
        tree.validate()
        ordered = [n.payload for n in tree]
        expected = sorted(range(20),
                          key=lambda i: pages[i].tobytes())
        assert ordered == expected

    def test_identical_pages_collide(self, rng):
        page = rng.bytes_array(4096)
        tree = ContentRBTree()
        tree.insert(RBNode(lambda: page, payload="first"))
        outcome = tree.insert(RBNode(lambda: page.copy(), payload="second"))
        assert outcome.match is not None
        assert outcome.match.payload == "first"
        assert len(tree) == 1

    def test_shared_prefix_costs_more(self, rng):
        base = rng.bytes_array(4096)
        similar = base.copy()
        similar[4000] ^= 1  # diverges only at byte 4000
        different = rng.bytes_array(4096)
        tree = ContentRBTree()
        tree.insert(RBNode(lambda: base, payload="base"))
        cheap = tree.walk(different).bytes_compared
        expensive = tree.walk(similar).bytes_compared
        assert expensive > cheap

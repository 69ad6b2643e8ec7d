"""A red-black tree indexed by page *contents*.

KSM keeps merged pages in a *stable* tree and scanned-but-unmerged pages
in an *unstable* tree, both ordered by memcmp of the page bytes
(Section 2.1, Figure 2a).  The walk that searches for a candidate also
identifies the insertion point, so a miss can insert without re-comparing
— mirroring the kernel's single-walk structure and keeping the cost model
honest.

This is a complete CLRS-style red-black tree (insert and delete fixups,
NIL sentinel) because KSM needs deletions: stable nodes whose frame was
fully CoW-broken away must be pruned, and merged pages move from the
unstable to the stable tree.
"""

from repro.ksm.compare import _PAIR_MEMO, _memoize_pair, compare_pages

RED = "red"
BLACK = "black"


class RBNode:
    """One tree node: a page reference plus tree linkage.

    ``key_fn`` returns the page's *current* bytes — stable-tree nodes
    point at a write-protected frame, unstable-tree nodes at a guest page
    whose contents may drift between passes (which is precisely why the
    unstable tree is thrown away each pass).
    """

    __slots__ = ("key_fn", "payload", "color", "left", "right", "parent")

    def __init__(self, key_fn, payload=None):
        self.key_fn = key_fn
        self.payload = payload
        self.color = RED
        self.left = None
        self.right = None
        self.parent = None

    def key(self):
        return self.key_fn()

    def __repr__(self):
        return f"RBNode(payload={self.payload!r}, color={self.color})"


class WalkOutcome:
    """Result of one search walk.

    ``match`` is the node with identical contents (or None); on a miss,
    ``parent``/``direction`` give the insertion point.  ``path`` lists the
    nodes compared, in order — PageForge's Scan Table walks exactly this
    sequence via its Less/More pointers.

    A ``__slots__`` class rather than a dataclass: one is built per tree
    walk, so construction cost is on the scan hot path.
    """

    __slots__ = ("match", "parent", "direction", "comparisons",
                 "bytes_compared", "path")

    def __init__(self, match, parent, direction, comparisons,
                 bytes_compared, path=None):
        self.match = match
        self.parent = parent
        self.direction = direction
        self.comparisons = comparisons
        self.bytes_compared = bytes_compared
        self.path = () if path is None else path

    def __repr__(self):
        return (
            f"WalkOutcome(match={self.match!r}, direction={self.direction!r}, "
            f"comparisons={self.comparisons}, "
            f"bytes_compared={self.bytes_compared})"
        )


class ContentRBTree:
    """Red-black tree over page contents with cost-counted walks."""

    def __init__(self, name="tree", compare=compare_pages):
        self.name = name
        self._compare = compare
        self._nil = RBNode(lambda: None)
        self._nil.color = BLACK
        self._nil.left = self._nil.right = self._nil.parent = self._nil
        self.root = self._nil
        self._size = 0
        # start node -> (limit, build, links, member set): the cached
        # Scan-Table batches of :meth:`batch`.
        self._batches = {}

    # Search -----------------------------------------------------------------

    def walk(self, candidate_bytes, collect_path=True):
        """Search for ``candidate_bytes``; returns :class:`WalkOutcome`.

        ``collect_path=False`` skips recording the visited-node list
        (``WalkOutcome.path`` comes back empty) — callers that never read
        the path, like the daemon under a null cost sink, save a list
        append per node.
        """
        nil = self._nil
        compare = self._compare
        node = self.root
        parent = None
        direction = "root"
        comparisons = 0
        total_bytes = 0
        path = [] if collect_path else None
        append = path.append if collect_path else None
        if compare is compare_pages and type(candidate_bytes) is bytes:
            # Inlined default comparison.  One walk issues O(log n)
            # compares, each against a frame's cached ``content_bytes``,
            # so the equality test is a C memcmp and the ordering of an
            # unequal pair comes from the shared pair memo — identical
            # values to compare_pages(), without the per-node call chain.
            n = len(candidate_bytes)
            memo_get = _PAIR_MEMO.get
            while node is not nil:
                key = node.key_fn()
                if type(key) is not bytes or len(key) != n:
                    sign, cost = compare_pages(candidate_bytes, key)
                elif key == candidate_bytes:
                    sign, cost = 0, n
                else:
                    pair = (candidate_bytes, key)
                    hit = memo_get(pair)
                    sign, cost = hit if hit is not None else _memoize_pair(pair)
                comparisons += 1
                total_bytes += cost
                if append is not None:
                    append(node)
                if sign == 0:
                    return WalkOutcome(
                        match=node,
                        parent=node.parent if node.parent is not nil else None,
                        direction=direction, comparisons=comparisons,
                        bytes_compared=total_bytes, path=path,
                    )
                parent = node
                if sign < 0:
                    node = node.left
                    direction = "left"
                else:
                    node = node.right
                    direction = "right"
            return WalkOutcome(
                match=None, parent=parent, direction=direction,
                comparisons=comparisons, bytes_compared=total_bytes, path=path,
            )
        while node is not nil:
            sign, cost = compare(candidate_bytes, node.key())
            comparisons += 1
            total_bytes += cost
            if append is not None:
                append(node)
            if sign == 0:
                return WalkOutcome(
                    match=node, parent=node.parent if node.parent is not nil else None,
                    direction=direction, comparisons=comparisons,
                    bytes_compared=total_bytes, path=path,
                )
            parent = node
            if sign < 0:
                node = node.left
                direction = "left"
            else:
                node = node.right
                direction = "right"
        return WalkOutcome(
            match=None, parent=parent, direction=direction,
            comparisons=comparisons, bytes_compared=total_bytes, path=path,
        )

    def search(self, candidate_bytes):
        """Shorthand: the matching node or None."""
        return self.walk(candidate_bytes).match

    # Insertion ----------------------------------------------------------------

    def insert_at(self, outcome, node):
        """Attach ``node`` at the insertion point found by a walk."""
        if outcome.match is not None:
            raise ValueError("walk found a match; insert_at expects a miss")
        node.left = node.right = self._nil
        node.color = RED
        if outcome.parent is None:
            node.parent = self._nil
            self.root = node
        else:
            node.parent = outcome.parent
            if outcome.direction == "left":
                outcome.parent.left = node
            elif outcome.direction == "right":
                outcome.parent.right = node
            else:
                raise ValueError(f"bad direction: {outcome.direction}")
            if self._batches:
                self._drop_batches(outcome.parent, (outcome.parent,))
        self._size += 1
        self._insert_fixup(node)
        return node

    def insert(self, node):
        """Walk + insert; returns the WalkOutcome (match=None on success).

        If an identical-content node already exists, nothing is inserted
        and the outcome carries the match.
        """
        outcome = self.walk(node.key())
        if outcome.match is None:
            self.insert_at(outcome, node)
        return outcome

    def _rotate_left(self, x):
        y = x.right
        x.right = y.left
        if y.left is not self._nil:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is self._nil:
            self.root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y
        if self._batches:
            self._drop_batches(x, (x, y, y.parent))

    def _rotate_right(self, x):
        y = x.left
        x.left = y.right
        if y.right is not self._nil:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is self._nil:
            self.root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y
        if self._batches:
            self._drop_batches(x, (x, y, y.parent))

    def _insert_fixup(self, z):
        while z.parent.color == RED:
            if z.parent is z.parent.parent.left:
                uncle = z.parent.parent.right
                if uncle.color == RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    z.parent.parent.color = RED
                    z = z.parent.parent
                else:
                    if z is z.parent.right:
                        z = z.parent
                        self._rotate_left(z)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    self._rotate_right(z.parent.parent)
            else:
                uncle = z.parent.parent.left
                if uncle.color == RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    z.parent.parent.color = RED
                    z = z.parent.parent
                else:
                    if z is z.parent.left:
                        z = z.parent
                        self._rotate_right(z)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    self._rotate_left(z.parent.parent)
        self.root.color = BLACK

    # Deletion -----------------------------------------------------------------

    def _transplant(self, u, v):
        if u.parent is self._nil:
            self.root = v
        elif u is u.parent.left:
            u.parent.left = v
        else:
            u.parent.right = v
        v.parent = u.parent

    def _minimum(self, node):
        while node.left is not self._nil:
            node = node.left
        return node

    def remove(self, z):
        """Remove node ``z`` (must belong to this tree)."""
        if self._batches:
            self._batches.clear()
        y = z
        y_original_color = y.color
        if z.left is self._nil:
            x = z.right
            self._transplant(z, z.right)
        elif z.right is self._nil:
            x = z.left
            self._transplant(z, z.left)
        else:
            y = self._minimum(z.right)
            y_original_color = y.color
            x = y.right
            if y.parent is z:
                x.parent = y
            else:
                self._transplant(y, y.right)
                y.right = z.right
                y.right.parent = y
            self._transplant(z, y)
            y.left = z.left
            y.left.parent = y
            y.color = z.color
        self._size -= 1
        if y_original_color == BLACK:
            self._delete_fixup(x)
        z.left = z.right = z.parent = None

    def _delete_fixup(self, x):
        while x is not self.root and x.color == BLACK:
            if x is x.parent.left:
                w = x.parent.right
                if w.color == RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._rotate_left(x.parent)
                    w = x.parent.right
                if w.left.color == BLACK and w.right.color == BLACK:
                    w.color = RED
                    x = x.parent
                else:
                    if w.right.color == BLACK:
                        w.left.color = BLACK
                        w.color = RED
                        self._rotate_right(w)
                        w = x.parent.right
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.right.color = BLACK
                    self._rotate_left(x.parent)
                    x = self.root
            else:
                w = x.parent.left
                if w.color == RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._rotate_right(x.parent)
                    w = x.parent.left
                if w.right.color == BLACK and w.left.color == BLACK:
                    w.color = RED
                    x = x.parent
                else:
                    if w.left.color == BLACK:
                        w.right.color = BLACK
                        w.color = RED
                        self._rotate_left(w)
                        w = x.parent.left
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.left.color = BLACK
                    self._rotate_right(x.parent)
                    x = self.root
        x.color = BLACK

    # Maintenance ----------------------------------------------------------------

    def reset(self):
        """Drop every node (KSM destroys the unstable tree each pass)."""
        self.root = self._nil
        self._size = 0
        self._batches.clear()

    def __len__(self):
        return self._size

    def __iter__(self):
        """In-order node iteration."""
        stack = []
        node = self.root
        while stack or node is not self._nil:
            while node is not self._nil:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node
            node = node.right

    def nodes(self):
        return list(self)

    # Structure helpers (for PageForge's breadth-first Scan-Table loads) -----------

    def breadth_first(self, start, limit):
        """The first ``limit`` nodes from ``start`` in breadth-first
        order, and each one's ``(left, right)`` children (None for NIL).

        PageForge's driver loads "the root of the red-black tree ... and a
        few subsequent levels of the tree in breadth-first order" into the
        Scan Table (Section 3.4).  Capping the node count rather than the
        depth fills every entry even under an unbalanced subtree.  Children
        are enqueued left before right, so the k-th non-None child in the
        returned pairs (counting from 1) is the node at position k.
        """
        nil = self._nil
        if start is nil or limit < 1:
            return [], []
        nodes = [start]
        children = []
        for node in nodes:  # grows while the cap allows
            left = node.left
            right = node.right
            if left is nil:
                left = None
            elif len(nodes) < limit:
                nodes.append(left)
            if right is nil:
                right = None
            elif len(nodes) < limit:
                nodes.append(right)
            children.append((left, right))
        return nodes, children

    def batch(self, start, limit, build):
        """``build(*self.breadth_first(start, limit))``, cached per start
        node.

        PageForge's driver turns each breadth-first load into Scan-Table
        Less/More links; the tree keeps that result until it can change.
        A batch is a function of its members' child pointers only, so it
        is dropped exactly when one of its own nodes has ``left`` or
        ``right`` rewritten (:meth:`_drop_batches`).  Node colours and
        page contents are not part of it.
        """
        cached = self._batches.get(start)
        if cached is not None and cached[0] == limit and cached[1] == build:
            return cached[2]
        nodes, children = self.breadth_first(start, limit)
        links = build(nodes, children)
        if nodes:
            self._batches[start] = (limit, build, links, set(nodes))
        return links

    def _drop_batches(self, lowest, changed):
        """Drop the cached batches holding a node of ``changed``, whose
        child pointers were just rewritten.

        A batch holds only descendants of its start node, so the
        candidates are the batches started at ``lowest`` (the deepest
        changed node) and its ancestors; after a rotation that chain
        still covers every ancestor the changed nodes had before it.
        """
        batches = self._batches
        nil = self._nil
        node = lowest
        while node is not nil:
            cached = batches.get(node)
            if cached is not None:
                members = cached[3]
                for member in changed:
                    if member in members:
                        del batches[node]
                        break
            node = node.parent

    def children(self, node):
        """(left, right) children, with None for NIL."""
        left = node.left if node.left is not self._nil else None
        right = node.right if node.right is not self._nil else None
        return left, right

    # Invariant validation (used heavily by the property tests) --------------------

    def validate(self):
        """Check all red-black invariants; raises AssertionError if broken."""
        if self.root.color != BLACK:
            raise AssertionError("root must be black")

        def check(node):
            if node is self._nil:
                return 1  # black height of NIL
            if node.color == RED:
                if node.left.color == RED or node.right.color == RED:
                    raise AssertionError("red node with red child")
            left_bh = check(node.left)
            right_bh = check(node.right)
            if left_bh != right_bh:
                raise AssertionError("unequal black heights")
            return left_bh + (1 if node.color == BLACK else 0)

        check(self.root)
        # Ordering invariant: in-order traversal must be sorted by content.
        prev = None
        count = 0
        for node in self:
            count += 1
            if prev is not None:
                sign, _cost = self._compare(prev.key(), node.key())
                if sign > 0:
                    raise AssertionError("in-order traversal out of order")
            prev = node
        if count != self._size:
            raise AssertionError(f"size mismatch: {count} != {self._size}")
        return True

import json
from itertools import permutations

import numpy as np
import pytest

from motifcensus import arrcode_table, koef_table, pair_slots
from oracles import isomorphism_class_counts

FAMILIES = [(3, False), (3, True), (4, False), (4, True)]


def test_undirected_triple_table():
    table = arrcode_table(3, False)
    assert table.entries.tolist() == [0, 1, 1, 2, 1, 2, 2, 3]
    assert [c.canonical_code for c in table.classes] == [0, 1, 3, 7]
    assert [c.connected for c in table.classes] == [False, False, True, True]


def test_table_sizes():
    sizes = {(3, False): 8, (3, True): 64, (4, False): 64, (4, True): 4096}
    for fam, n_codes in sizes.items():
        assert arrcode_table(*fam).entries.size == n_codes


def class_counts(size, directed):
    table = arrcode_table(size, directed)
    return table.n_classes, table.n_connected


def test_class_counts_all_families():
    assert class_counts(3, False) == (4, 2)
    assert class_counts(3, True) == (16, 13)
    assert class_counts(4, False) == (11, 6)
    assert class_counts(4, True) == (218, 199)


def test_class_counts_match_isomorphism_oracle():
    # independent grouping by pairwise isomorphism tests
    for size, directed in [(3, False), (3, True), (4, False)]:
        assert class_counts(size, directed) == \
            isomorphism_class_counts(size, directed)


def test_class_ids_ascend_with_canonical_codes():
    for fam in FAMILIES:
        table = arrcode_table(*fam)
        codes = [c.canonical_code for c in table.classes]
        assert codes == sorted(codes)
        for cls in table.classes:
            assert table.entries[cls.canonical_code] == cls.class_id


def _permuted_code(code, perm, slots, slot_index, directed):
    out = 0
    for s, (i, j) in enumerate(slots):
        if code >> s & 1:
            pair = (perm[i], perm[j])
            if not directed:
                pair = (min(pair), max(pair))
            out |= 1 << slot_index[pair]
    return out


@pytest.mark.parametrize("size,directed", FAMILIES)
def test_classification_is_permutation_invariant(size, directed):
    table = arrcode_table(size, directed)
    slots = pair_slots(size, directed)
    slot_index = {p: s for s, p in enumerate(slots)}
    for code in range(table.entries.size):
        cid = table.entries[code]
        for perm in permutations(range(size)):
            moved = _permuted_code(code, perm, slots, slot_index, directed)
            assert table.entries[moved] == cid


def test_orbit_sizes_cover_the_table():
    for fam in FAMILIES:
        table = arrcode_table(*fam)
        seen = [0] * table.n_classes
        for code in range(table.entries.size):
            seen[table.entries[code]] += 1
        assert sum(seen) == table.entries.size
        assert all(seen)


def _connected_by_bfs(code, size, directed):
    slots = pair_slots(size, directed)
    adj = [set() for _ in range(size)]
    for s, (i, j) in enumerate(slots):
        if code >> s & 1:
            adj[i].add(j)
            adj[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in adj[v] - seen:
            seen.add(u)
            stack.append(u)
    return len(seen) == size


def test_connectivity_flags():
    for fam in FAMILIES:
        table = arrcode_table(*fam)
        for cls in table.classes:
            assert cls.connected == _connected_by_bfs(
                cls.canonical_code, *fam)


def test_directed_triples_have_13_connected_classes():
    table = arrcode_table(3, True)
    assert table.n_connected == 13


def test_build_arrcode_rejects_bad_size():
    with pytest.raises(ValueError):
        arrcode_table.__wrapped__(5, False)


def test_tables_do_not_depend_on_what_the_caches_hold():
    # 4.0 and 1 equal 4 and True: a cache keyed by value handed them the
    # table of the family they equal, or built one they then reported
    for build in (pair_slots, arrcode_table, koef_table):
        build(4, False)
        build(3, True)
        with pytest.raises(ValueError, match="^motif size must be 3 or 4"):
            build(4.0, False)
        for directed in (1, "no", None):
            with pytest.raises(TypeError, match="^directed must be a bool"):
                build(3, directed)
    # a numpy integer and a numpy bool name their family
    table = arrcode_table(np.int64(3), np.True_)
    assert type(table.size) is int and table.directed is True
    assert json.dumps(table.to_dict()) == \
        json.dumps(arrcode_table(3, True).to_dict())
    koefs = koef_table(np.int32(4), np.False_)
    assert {k: v.tolist() for k, v in koefs.items()} == \
        {k: v.tolist() for k, v in koef_table(4, False).items()}


def test_entries_are_read_only():
    table = arrcode_table(4, True)
    with pytest.raises(ValueError):
        table.entries[0] = 1

from itertools import permutations

import pytest

from motifcensus import arrcode_table, build_arrcode, pair_slots
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
        assert arrcode_table(*fam).n_codes == n_codes


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
            assert table.classify(cls.canonical_code) == cls.class_id


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
    for code in range(table.n_codes):
        cid = table.classify(code)
        for perm in permutations(range(size)):
            moved = _permuted_code(code, perm, slots, slot_index, directed)
            assert table.classify(moved) == cid


def test_orbit_sizes_cover_the_table():
    for fam in FAMILIES:
        table = arrcode_table(*fam)
        seen = [0] * table.n_classes
        for code in range(table.n_codes):
            seen[table.classify(code)] += 1
        assert sum(seen) == table.n_codes
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
    assert len(table.connected_class_ids()) == 13


def test_classify_function_and_bounds():
    table = arrcode_table(3, False)
    assert table.classify(0b111) == 3
    with pytest.raises(ValueError):
        table.classify(8)
    with pytest.raises(ValueError):
        table.classify(-1)


def test_build_arrcode_rejects_bad_size():
    with pytest.raises(ValueError):
        build_arrcode(5, False)


def test_entries_are_read_only():
    table = arrcode_table(4, True)
    with pytest.raises(ValueError):
        table.entries[0] = 1

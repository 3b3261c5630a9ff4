"""Deliberately bad: unordered values consumed through aliases.

The set and the dict view are constructed one binding away from where
they are iterated: a syntactic match on the loop would miss both, while
the dataflow behind D004/D005 catches them.
"""


def ordered_members(links):
    pool, count = set(links), 0
    collected = []
    for link in pool:  # D004: `pool` flows from `set(links)`
        collected.append(link)
        count += 1
    return collected, count


def render_rows(table):
    view = table.items()
    rows = []
    for key, value in view:  # D005: `view` flows from `.items()`
        rows.append(f"{key}={value}")
    return rows

"""Locate food-item mentions in normalized reviews and scope opinion spans.

A review is read once, left to right. The scan matches item aliases
(greedy, longest first, each token in at most one mention) and splits
clauses at clause markers in the same pass. As each clause closes, the
attachment rule places it: a clause with a mention goes to every item it
mentions; a mention-less clause goes to the nearest preceding mention in
its sentence, else the nearest following one, else it is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import CLAUSE_MARKERS, COORD_MARKERS, SENT_BREAK
from .errors import InputError, MalformedRecord


@dataclass(frozen=True)
class LexiconItem:
    """One food item with the token sequences that name it."""

    item_id: int
    canonical_name: str
    aliases: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class ItemFragment:
    review_id: str
    item_id: int
    tokens: tuple[str, ...]
    clause_index: int  # index of the first clause mentioning the item


def load_item_lexicon(path) -> list[LexiconItem]:
    """Load ``item_id<TAB>canonical_name<TAB>alias1|alias2|...`` lines.

    The canonical name (lowercased, whitespace-tokenized) is added to the
    alias set when absent. Alias sets of distinct items must be disjoint.
    """
    items = []
    seen_ids = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise MalformedRecord(lineno, "expected item_id<TAB>name<TAB>aliases")
            try:
                item_id = int(parts[0])
            except ValueError:
                raise MalformedRecord(lineno, f"bad item_id {parts[0]!r}")
            if item_id in seen_ids:
                raise MalformedRecord(lineno, f"duplicate item_id {item_id}")
            seen_ids.add(item_id)
            name = parts[1].strip()
            aliases = [tuple(a.lower().split()) for a in parts[2].split("|") if a.strip()]
            canonical = tuple(name.lower().split())
            if canonical and canonical not in aliases:
                aliases.append(canonical)
            if not aliases:
                raise MalformedRecord(lineno, "item has no usable alias")
            for alias in aliases:
                if marker := _marker_in(alias):
                    raise MalformedRecord(lineno, f"alias {' '.join(alias)!r} contains the "
                                                  f"clause marker {marker!r}")
            items.append(LexiconItem(item_id, name, tuple(aliases)))
    _check_disjoint_aliases(items)
    return items


def save_item_lexicon(items, path):
    with open(path, "w", encoding="utf-8") as fh:
        for it in sorted(items, key=lambda x: x.item_id):
            aliases = "|".join(" ".join(a) for a in it.aliases)
            fh.write(f"{it.item_id}\t{it.canonical_name}\t{aliases}\n")


def _check_disjoint_aliases(items):
    owner = {}
    for it in items:
        for alias in it.aliases:
            if not alias:
                raise InputError(f"item {it.item_id} has an empty alias")
            if alias in owner and owner[alias] != it.item_id:
                raise InputError(
                    f"alias {' '.join(alias)!r} shared by items {owner[alias]} and {it.item_id}"
                )
            owner[alias] = it.item_id


def _marker_in(alias):
    """The first clause-marker token of an alias, or None.

    A marker splits clauses, so an alias holding one could never sit inside
    a single clause; such aliases are rejected rather than matched.
    """
    return next((tok for tok in alias if tok in CLAUSE_MARKERS), None)


_BREAK = object()  # index values of SENT_BREAK and of the other clause markers
_COORD = object()


def build_alias_index(items) -> dict:
    """Map each alias's first token to its ``(length, alias, item_id)``
    candidates, longest first, and each clause marker to _BREAK or _COORD.

    Of two items listing the same alias, the first in ``items`` keeps it.
    An empty alias or one holding a clause marker raises InputError.
    """
    by_first = {}
    for it in items:
        for alias in it.aliases:
            if not alias:
                raise InputError(f"item {it.item_id} has an empty alias")
            if marker := _marker_in(alias):
                raise InputError(f"item {it.item_id} alias {' '.join(alias)!r} contains "
                                 f"the clause marker {marker!r}")
            by_first.setdefault(alias[0], []).append((len(alias), tuple(alias), it.item_id))
    index = {tok: tuple(sorted(cands, key=lambda c: -c[0]))
                   for tok, cands in by_first.items()}
    index.update(dict.fromkeys(COORD_MARKERS, _COORD))
    index[SENT_BREAK] = _BREAK
    return index


def fragment_review(tokens, index, review_id="") -> list[ItemFragment]:
    """One fragment per mentioned item, in first-mention order: the tokens
    (markers excluded) of the clauses attached to the item, in review order.

    ``index`` comes from build_alias_index.
    """
    first_clause: dict[int, int] = {}  # item -> ordinal of its first clause; keys in mention order
    kept: dict[int, list[str]] = {}    # item -> its attached clause tokens
    pending = []   # mention-less clauses of this sentence awaiting a following mention
    last = None    # item of the latest mention in this sentence
    clause = []
    here = []      # items mentioned in the open clause, first-mention order
    ordinal = 0

    def close():
        nonlocal clause, here, pending, ordinal
        if here:
            for item in here:
                if item not in first_clause:
                    first_clause[item] = ordinal
                    kept[item] = []
            for earlier in pending:
                kept[here[0]].extend(earlier)
            pending = []
            for item in here:
                kept[item].extend(clause)
            here = []
        elif last is not None:
            kept[last].extend(clause)
        else:
            pending.append(clause)
        clause = []
        ordinal += 1

    skip = 0
    for i, tok in enumerate(tokens):
        if skip:  # inside a multi-token mention, already added to the clause
            skip -= 1
            continue
        hit = index.get(tok)
        if hit is None:
            clause.append(tok)
        elif hit is _COORD:
            if clause:
                close()
        elif hit is _BREAK:
            if clause:
                close()
            pending = []
            last = None
        else:
            for length, alias, item in hit:
                if length == 1 or tuple(tokens[i:i + length]) == alias:
                    clause.extend(alias)
                    skip = length - 1
                    last = item
                    if item not in here:
                        here.append(item)
                    break
            else:
                clause.append(tok)
    if clause:
        close()
    return [ItemFragment(review_id, item, tuple(kept[item]), first)
            for item, first in first_clause.items()]

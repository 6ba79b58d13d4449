"""Review ingestion, text normalization and vocabulary construction.

Review and restaurant files are UTF-8 JSON-lines: one object per line with
the field names documented on the loaders. Lexicon files are tab-separated,
one mapping per line, ``#`` comments ignored.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DuplicateId, EmptyVocabulary, InputError, MalformedRecord

POSITIVE = "positive"
NEGATIVE = "negative"
UNLABELED = "unlabeled"

POS_EMO = "POS_EMO"
NEG_EMO = "NEG_EMO"

# Sentence-break marker emitted by normalize(). '<' and '>' are stripped from
# raw text before markers are inserted, so this token can never collide with
# input vocabulary.
SENT_BREAK = "<s>"

# Coordinating tokens that split clauses inside a sentence. "and-then" is the
# canonical form of the bigram "and then" (merged during normalization).
COORD_MARKERS = frozenset({"but", "however", "while", "whereas", "and-then"})

CLAUSE_MARKERS = COORD_MARKERS | {SENT_BREAK}

# Tokens that survive stopword removal no matter what the stopword list says.
PROTECTED_TOKENS = CLAUSE_MARKERS | {POS_EMO, NEG_EMO}

_SENT_PUNCT_RE = re.compile(r"[.!?;]+")
_OTHER_PUNCT_RE = re.compile(r"[^\w\s\x00]")
_SENTINEL_SPLIT_RE = re.compile(r"(POS_EMO|NEG_EMO)")

STAR_VALUES = tuple(x / 2 for x in range(2, 11))  # 1.0, 1.5, ..., 5.0


@dataclass(frozen=True)
class ReviewRecord:
    """One user's review of one restaurant."""

    review_id: str
    restaurant_id: str
    user_id: str
    stars: float
    text: str
    annotated_label: str = UNLABELED


@dataclass(frozen=True)
class RestaurantProfile:
    restaurant_id: str
    name: str
    cuisines: tuple[str, ...]
    zomato_rating: float


@dataclass(frozen=True)
class LexiconSet:
    """Stopwords, emoticon sentiment map and slang expansion map.

    Emoticon values must be POS_EMO or NEG_EMO. A slang key must not occur
    in its own expansion (expansion is single-pass, so this guards against
    accidental rewrite loops rather than runtime hangs). The longest-first
    emoticon order that normalize() replaces in is taken at construction.
    """

    stopwords: frozenset[str] = frozenset()
    emoticon_map: dict[str, str] = field(default_factory=dict)
    slang_map: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        for emo, cls in self.emoticon_map.items():
            if cls not in (POS_EMO, NEG_EMO):
                raise InputError(f"emoticon {emo!r} maps to {cls!r}, expected POS_EMO or NEG_EMO")
        for key, expansion in self.slang_map.items():
            if key in expansion:
                raise InputError(f"slang {key!r} expands to a sequence containing itself")
        object.__setattr__(self, "_emoticons_longest_first",
                           tuple(sorted(self.emoticon_map, key=len, reverse=True)))


@dataclass(frozen=True)
class Vocabulary:
    """Token -> contiguous index map, ordered by descending corpus frequency."""

    index: dict[str, int]
    min_count: int

    def __len__(self):
        return len(self.index)

    def __contains__(self, token):
        return token in self.index

    @property
    def tokens(self) -> list[str]:
        """Tokens in index order."""
        ordered = [""] * len(self.index)
        for tok, i in self.index.items():
            ordered[i] = tok
        return ordered

    def encode(self, tokens) -> list[int]:
        """Map tokens to indices, silently dropping out-of-vocabulary tokens."""
        return [self.index[t] for t in tokens if t in self.index]

    def sha256(self) -> str:
        return hashlib.sha256("\n".join(self.tokens).encode("utf-8")).hexdigest()


def _validate_stars(value):
    try:
        stars = float(value)
    except (TypeError, ValueError, OverflowError):
        return None
    if not 1.0 <= stars <= 5.0:  # also rejects NaN and infinities
        return None
    if abs(stars * 2 - round(stars * 2)) > 1e-9:
        return None
    return stars


def _json_lines(path):
    """Yield (1-based line number, decoded value) for each non-blank line.

    Bytes that are not UTF-8 raise InputError; a line that is not JSON
    raises MalformedRecord with its line number.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedRecord(lineno, f"invalid JSON: {exc.msg}")
                except RecursionError:
                    raise MalformedRecord(lineno, "invalid JSON: nested too deeply")
                yield lineno, obj
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not UTF-8 text: {exc.reason}") from None


_REVIEW_FIELDS = {"review_id", "restaurant_id", "user_id", "stars", "text", "annotated_label"}


def load_reviews(path) -> list[ReviewRecord]:
    """Load newline-delimited review records, preserving file order.

    Raises MalformedRecord (with the 1-based line number) on the first
    invalid line and DuplicateId on a repeated review_id.
    """
    records = []
    seen = set()
    for lineno, obj in _json_lines(path):
        if not isinstance(obj, dict):
            raise MalformedRecord(lineno, "record is not an object")
        unknown = set(obj) - _REVIEW_FIELDS
        if unknown:
            raise MalformedRecord(lineno, f"unknown fields {sorted(unknown)}")
        missing = {"review_id", "restaurant_id", "user_id", "stars", "text"} - set(obj)
        if missing:
            raise MalformedRecord(lineno, f"missing fields {sorted(missing)}")
        stars = _validate_stars(obj["stars"])
        if stars is None:
            raise MalformedRecord(lineno, f"stars {obj['stars']!r} not in 1.0..5.0 by 0.5 steps")
        text = str(obj["text"])
        if not text.strip():
            raise MalformedRecord(lineno, "empty review text")
        label = obj.get("annotated_label", UNLABELED)
        if label not in (POSITIVE, NEGATIVE, UNLABELED):
            raise MalformedRecord(lineno, f"bad annotated_label {label!r}")
        rid = str(obj["review_id"])
        if rid in seen:
            raise DuplicateId(f"duplicate review_id {rid!r} at line {lineno}")
        seen.add(rid)
        records.append(
            ReviewRecord(
                review_id=rid,
                restaurant_id=str(obj["restaurant_id"]),
                user_id=str(obj["user_id"]),
                stars=stars,
                text=text,
                annotated_label=label,
            )
        )
    return records


def save_reviews(records, path):
    """Write records as JSON lines (canonical form: all fields explicit)."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(
                json.dumps(
                    {
                        "review_id": r.review_id,
                        "restaurant_id": r.restaurant_id,
                        "user_id": r.user_id,
                        "stars": r.stars,
                        "text": r.text,
                        "annotated_label": r.annotated_label,
                    },
                    sort_keys=True,
                    ensure_ascii=False,
                )
                + "\n"
            )


def load_restaurants(path) -> list[RestaurantProfile]:
    profiles = []
    seen = set()
    for lineno, obj in _json_lines(path):
        try:
            rid = str(obj["restaurant_id"])
            name = str(obj["name"])
            cuisines = tuple(str(c) for c in obj.get("cuisines", []))
            rating = float(obj["zomato_rating"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedRecord(lineno, f"bad restaurant record: {exc}")
        if not 1.0 <= rating <= 5.0:
            raise MalformedRecord(lineno, f"zomato_rating {rating} out of range")
        if rid in seen:
            raise DuplicateId(f"duplicate restaurant_id {rid!r} at line {lineno}")
        seen.add(rid)
        profiles.append(RestaurantProfile(rid, name, cuisines, rating))
    return profiles


def save_restaurants(profiles, path):
    with open(path, "w", encoding="utf-8") as fh:
        for p in profiles:
            fh.write(
                json.dumps(
                    {
                        "restaurant_id": p.restaurant_id,
                        "name": p.name,
                        "cuisines": list(p.cuisines),
                        "zomato_rating": p.zomato_rating,
                    },
                    sort_keys=True,
                    ensure_ascii=False,
                )
                + "\n"
            )


def _read_tsv_lines(path):
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            yield lineno, line


def load_lexicons(directory) -> LexiconSet:
    """Load stopwords.txt, emoticons.tsv and slang.tsv from a directory."""
    directory = Path(directory)
    stopwords = set()
    path = directory / "stopwords.txt"
    if not path.exists():
        raise InputError(f"missing lexicon file {path}")
    for _, line in _read_tsv_lines(path):
        stopwords.add(line.strip().lower())

    emoticon_map = {}
    path = directory / "emoticons.tsv"
    if not path.exists():
        raise InputError(f"missing lexicon file {path}")
    for lineno, line in _read_tsv_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise MalformedRecord(lineno, f"expected 'emoticon<TAB>class' in {path.name}")
        emoticon_map[parts[0]] = parts[1].strip()

    slang_map = {}
    path = directory / "slang.tsv"
    if not path.exists():
        raise InputError(f"missing lexicon file {path}")
    for lineno, line in _read_tsv_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise MalformedRecord(lineno, f"expected 'slang<TAB>replacement' in {path.name}")
        slang_map[parts[0].lower()] = tuple(parts[1].split())

    return LexiconSet(frozenset(stopwords), emoticon_map, slang_map)


def save_lexicons(lex: LexiconSet, directory):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "stopwords.txt").write_text(
        "".join(f"{w}\n" for w in sorted(lex.stopwords)), encoding="utf-8"
    )
    (directory / "emoticons.tsv").write_text(
        "".join(f"{k}\t{v}\n" for k, v in sorted(lex.emoticon_map.items())), encoding="utf-8"
    )
    (directory / "slang.tsv").write_text(
        "".join(f"{k}\t{' '.join(v)}\n" for k, v in sorted(lex.slang_map.items())),
        encoding="utf-8",
    )


def _lowercase_keeping_sentinels(text: str) -> str:
    parts = _SENTINEL_SPLIT_RE.split(text)
    return "".join(p if p in (POS_EMO, NEG_EMO) else p.lower() for p in parts)


def normalize(text: str, lex: LexiconSet) -> list[str]:
    """Normalize raw review text to a token list.

    Fixed pipeline order:

    1. emoticon replacement on the raw string, longest emoticon first;
    2. lowercasing (POS_EMO/NEG_EMO sentinels keep their case);
    3. punctuation handling: apostrophes deleted, ``.!?;`` runs become the
       sentence-break marker, every other punctuation character becomes a
       space, then whitespace tokenization;
    4. one left-to-right pass over the tokens that merges the bigram
       "and then" into the clause marker "and-then", expands slang
       (expansions are neither re-expanded nor re-merged) and removes
       stopwords; sentinels and clause markers are never expanded or removed.
    """
    for emo in lex._emoticons_longest_first:
        if emo in text:
            text = text.replace(emo, f" {lex.emoticon_map[emo]} ")

    text = _lowercase_keeping_sentinels(text)

    text = text.replace("'", "").replace("’", "")
    # markers from a previous normalize() pass must survive re-normalization
    text = text.replace(SENT_BREAK, "\x00")
    text = text.replace("<", " ").replace(">", " ")
    text = _SENT_PUNCT_RE.sub(" \x00 ", text)
    text = _OTHER_PUNCT_RE.sub(" ", text)
    text = text.replace("\x00", f" {SENT_BREAK} ")

    stopwords = lex.stopwords
    slang = lex.slang_map
    raw_tokens = text.split()
    n = len(raw_tokens)
    tokens = []
    i = 0
    while i < n:
        tok = raw_tokens[i]
        i += 1
        if tok == "and" and i < n and raw_tokens[i] == "then":
            tok = "and-then"
            i += 1
        if tok in PROTECTED_TOKENS:
            tokens.append(tok)
        elif tok in slang:
            tokens.extend(t for t in slang[tok] if t in PROTECTED_TOKENS or t not in stopwords)
        elif tok not in stopwords:
            tokens.append(tok)
    return tokens


def build_vocabulary(corpus, min_count: int = 1) -> Vocabulary:
    """Build a vocabulary over token lists.

    Keeps tokens whose corpus frequency is >= min_count; indices are assigned
    by descending frequency with lexicographic tie-breaking, so two runs on
    the same corpus produce identical mappings.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts = Counter()
    for tokens in corpus:
        counts.update(tokens)
    kept = [(tok, n) for tok, n in counts.items() if n >= min_count]
    if not kept:
        raise EmptyVocabulary(f"no token reaches min_count={min_count}")
    kept.sort(key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary({tok: i for i, (tok, _) in enumerate(kept)}, min_count)

"""The one JSON writer of the package's reports and instance files.

`dumps(obj)` is ``json.dumps(obj, indent=1)``, byte for byte.  With an
indent, the standard library runs its pure-Python encoder, which makes a
generator step and a chain of type tests per value.  Here a list of
dicts that share one key order and hold only scalars (`verify`'s
``per_trial``, `bench`'s rows) is one template, filled by one ``%`` over
all its values; a list of scalars is one join; anything else is one
recursive pass.  Scalars come out as the standard library writes them:
``float.__repr__`` with NaN, Infinity and -Infinity, ``int.__repr__``,
``true``, ``false``, ``null``, and ASCII-escaped strings.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: The text of a scalar of exactly one of these types, but for the
#: non-finite floats (`_NON_FINITE`); each is a C function.
_SCALARS = {float: float.__repr__, int: int.__repr__, str: _string,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): {None: "null"}.__getitem__}


def _scalar(x):
    """`_SCALARS` for a subclass of str, int or float, tested in the
    standard library's order; None for anything else."""
    if isinstance(x, str):
        return _string(x)
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return float.__repr__(x)
    return None


def _text(x):
    """The text of a scalar, or None."""
    text = _SCALARS.get(type(x), _scalar)(x)
    return text if text is None else _NON_FINITE.get(text, text)


def _texts(values):
    """The texts of ``values`` if every one is a scalar, else None."""
    texts = [_SCALARS.get(type(x), _scalar)(x) for x in values]
    if None in texts:
        return None
    if not _NON_FINITE.keys().isdisjoint(texts):
        texts = [_NON_FINITE.get(s, s) for s in texts]
    return texts


def _key(k) -> str:
    """A dict key as the standard library writes it: a non-string scalar
    becomes the string of its text first."""
    if not isinstance(k, str):
        if (k := _text(k)) is None:
            raise TypeError("keys must be str, int, float, bool or None")
    return _string(k)


def dumps(obj) -> str:
    """``json.dumps(obj, indent=1)``."""
    out = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(obj, nl: str, out: list) -> None:
    """Append the text of ``obj`` to ``out``, at the indent of ``nl`` (a
    newline and one space per level)."""
    if (text := _text(obj)) is not None:
        out.append(text)
        return
    inner = nl + " "
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
        elif not isinstance(obj[0], (list, tuple, dict)) and (
                texts := _texts(obj)) is not None:
            out.append("[" + inner + ("," + inner).join(texts) + nl + "]")
        elif not _records(obj, nl, out):
            sep = "[" + inner
            for x in obj:
                out.append(sep)
                _write(x, inner, out)
                sep = "," + inner
            out.append(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        sep = "{" + inner
        for k, v in obj.items():
            out.append(sep + _key(k) + ": ")
            _write(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not "
                        "JSON serializable")


def _records(rows, nl: str, out: list) -> bool:
    """Append the list ``rows`` through one template if its items are
    non-empty dicts of one key order and scalar values; return False,
    appending nothing, otherwise."""
    first = rows[0]
    if type(first) is not dict or not first:
        return False
    keys = tuple(first)
    if not all(type(r) is dict and tuple(r) == keys for r in rows):
        return False
    texts = _texts([v for r in rows for v in r.values()])
    if texts is None:
        return False
    inner, deeper = nl + " ", nl + "  "
    # a % in a key would read as a conversion
    item = "{" + deeper + ("," + deeper).join(
        _key(k).replace("%", "%%") + ": %s" for k in keys) + inner + "}"
    out.append("[" + inner + ("," + inner).join([item] * len(rows))
               % tuple(texts) + nl + "]")
    return True

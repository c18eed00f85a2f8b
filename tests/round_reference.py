"""Reference copy of the whole-tree round-file reader.

``load_simulation_file``, ``_value`` and ``_key_table`` are verbatim copies of
the package's versions that read a round file with ``json.load`` and convert
the decoded tree.  ``test_roundsim.TestRoundFileReference`` asks
``roundsim.load_simulation_file`` for the specs this reader returns, or for
the exception type and message it raises, on valid and malformed files.
"""

import dataclasses
import json

from qfround.equilibrium import Valuation
from qfround.errors import LedgerFormatError
from qfround.roundsim import _KEY_OF_FIELD, _KEY_TYPES, _TYPE_NAMES, AgentSpec, CategorySpec, PoolEvent, RoundConfig


def _key_table(cls) -> tuple[dict[str, tuple[int, object]], list]:
    """``cls``'s round-file keys, ``{key: (field index, JSON type)}``, and its field defaults."""
    fields = dataclasses.fields(cls)
    keys = [_KEY_OF_FIELD.get(f.name, f.name) for f in fields]
    return {key: (i, _KEY_TYPES.get(key)) for i, key in enumerate(keys) if key}, [f.default for f in fields]


_KEYS = {cls: _key_table(cls) for cls in (RoundConfig, CategorySpec, PoolEvent, AgentSpec, Valuation)}


def _value(value, key: str, json_type, parent: dict):
    """``value`` of round-file ``key`` as its field takes it, where ``type(value)`` is not
    ``json_type``; a TypeError when it is not of that JSON type.  In a list of specs, each
    object's keys fill their fields, and an absent key leaves the field's default."""
    if json_type is None:
        return value
    if json_type is float and type(value) is int:
        return float(value)
    if type(json_type) is not list:  # type(True) is bool, so a boolean is no number
        raise TypeError(f"{key} must be {_TYPE_NAMES[json_type]}, got {value!r:.80}")
    if type(value) is not list:  # a string is not split into one-character ids
        raise TypeError(f"{key} must be a list, got {value!r:.80}")
    [spec] = json_type
    if spec is str:
        return tuple([item if type(item) is str else _value(item, key, str, parent) for item in value])
    table, defaults = _KEYS[spec]
    defaults = [parent.get("id"), *defaults[1:]] if spec is Valuation else defaults
    specs = []
    for raw in value:
        if type(raw) is not dict:
            raise TypeError(f"{key} must hold objects, got {raw!r:.80}")
        fields = defaults.copy()
        for name, item in raw.items():
            try:
                index, item_type = table[name]
            except KeyError:
                raise TypeError(f"unknown key {name!r} in {key}") from None
            fields[index] = item if type(item) is item_type else _value(item, name, item_type, raw)
        if len(raw) < len(table) and dataclasses.MISSING in fields:
            missing = next(name for name, (index, _) in table.items() if fields[index] is dataclasses.MISSING)
            raise TypeError(f"missing key {missing!r}")
        specs.append(spec(*fields))
    return tuple(specs)


def load_simulation_file(path) -> tuple[RoundConfig, list[AgentSpec]]:
    """Read a JSON round file, a RoundConfig's keys and its ``agents``; LedgerFormatError
    ``path:line: reason`` for a JSON syntax error, ``path: reason`` for any other fault.
    A leading UTF-8 byte-order mark is skipped, as for CSV inputs."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            data = json.load(handle)
        if type(data) is not dict:
            raise TypeError(f"a round file must be a JSON object, got {data!r:.80}")
        agents = data.pop("agents", [])
        [config] = _value([data], "the round file", [RoundConfig], data)
        return config, list(_value(agents, "agents", _KEY_TYPES["agents"], data))
    except json.JSONDecodeError as exc:
        raise LedgerFormatError(f"{path}:{exc.lineno}: {exc.msg}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise LedgerFormatError(f"{path}: {exc}") from None

"""Mutable state at module level in the package, listed by name.

Each entry is shared by every node in a process. A new one fails this
test until it is either owned by an object or added here with its
reason."""

import collections
import importlib
import pkgutil

import shardchain

KNOWN = {
    "cli.PROFILES",         # a constant table of named chain profiles
    "codec._verify_cache",  # tx -> verdict, shared by every node
    "codec._public_key",    # lru_cache: public key bytes -> key object
    "sim._key_cache",       # label -> KeyPair of derived_key
}


def module_state():
    found = set()
    for info in pkgutil.iter_modules(shardchain.__path__):
        module = importlib.import_module("shardchain." + info.name)
        for name, obj in vars(module).items():
            if name.startswith("__"):
                continue
            if isinstance(obj, (dict, list, set, bytearray,
                                collections.deque)) \
                    or hasattr(obj, "cache_info"):
                found.add("%s.%s" % (info.name, name))
    return found


def test_no_new_module_level_mutable_state():
    assert module_state() == KNOWN

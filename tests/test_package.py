"""The package's public surface."""

import types

import nclil


def test_all_lists_every_public_name_once():
    """A name left in ``__all__`` after its definition goes breaks
    ``from nclil import *``; a public name missing from it is skipped."""
    assert len(nclil.__all__) == len(set(nclil.__all__))
    public = {name for name, value in vars(nclil).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(nclil.__all__) == public
    namespace = {}
    exec("from nclil import *", namespace)
    assert public <= namespace.keys()

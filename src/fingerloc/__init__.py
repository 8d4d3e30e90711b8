"""fingerloc: fingerprint-based radio emitter localization.

Build databases of channel fingerprints on a survey grid, match live
measurements against them probabilistically, track moving emitters, and
project fingerprints across frequency, bandwidth, and space when the
emitter does not match the training conditions.

The API is the submodules (``fingerloc.stats``, ``fingerloc.tracking``, ...).
The package imports none of them, so a run loads only what it uses.
"""

__version__ = "0.1.0"

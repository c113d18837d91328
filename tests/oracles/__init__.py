"""Test oracles: tiny reference implementations the production code is
differentially tested against.  Reference behaviour lives here, not behind
switches in ``src/``."""

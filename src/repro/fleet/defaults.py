"""Fleet settings the CLI parser needs, importable without the fleet.

``repro evalfleet`` registers its argparse tree in every CLI process;
the defaults it shows live here so that registering it imports neither
the driver nor the aggregator.
"""

#: Default items per checkpoint shard.
DEFAULT_SHARD_SIZE = 25

"""End-to-end benchmark of the repro scenario paths; see ``README.md``."""

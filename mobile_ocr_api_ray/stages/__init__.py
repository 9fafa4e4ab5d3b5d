"""Per-batch transforms and map stages (SURVEY.md §2.2/2.3/2.7)."""

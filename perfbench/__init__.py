"""End-to-end benchmark of paper experiment cells (see README.md)."""

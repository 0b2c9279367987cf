"""Corpus-based morphological complexity measures for CoNLL-U treebanks."""

__version__ = "0.1.0"

"""Recorded session model: types, disk format, validation, synthetic generation."""

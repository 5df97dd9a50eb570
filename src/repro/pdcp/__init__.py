"""PDCP layer: header inspection, SN numbering, ciphering."""

"""RLC layer: UM/AM transmitting and receiving entities."""

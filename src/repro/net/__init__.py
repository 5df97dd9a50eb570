"""Network substrate: packets, TCP-Cubic transport, QoS profiles."""

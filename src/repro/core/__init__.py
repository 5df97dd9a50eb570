"""OutRAN's contribution: intra-user MLFQ + inter-user epsilon scheduling."""

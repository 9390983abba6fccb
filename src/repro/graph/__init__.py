"""Graph substrate: synthetic generators, Spark input lift, coloring."""

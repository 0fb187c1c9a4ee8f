package baseline

// PairSource is the merge loop's source of pairs.
type PairSource = pairSource

// RandomPairs returns the pair source r's Summarize draws from.
func RandomPairs(r *Random) PairSource { return r.next }

// ClusteringPairs returns the pair source Clustering.Summarize replays
// steps through.
func ClusteringPairs(steps []MergeStep) PairSource { return dendrogram(steps) }

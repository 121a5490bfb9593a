// Package cluster implements k-means clustering with k-means++ seeding.
// OpineDB uses it to discover categorical markers (§4.2.1): the linguistic
// domain of a categorical attribute is clustered in embedding space and the
// phrase nearest each centroid is suggested as a marker.
package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/embedding"
)

// Result holds a clustering: the final centroids, each point's cluster
// assignment, and the index of the point closest to each centroid (the
// "medoid", which OpineDB uses as the suggested marker phrase).
type Result struct {
	Centroids []embedding.Vector
	Assign    []int
	Medoids   []int
}

// KMeans clusters points into k clusters using k-means++ initialization and
// Lloyd iterations until convergence or maxIter. It returns an error if
// there are fewer points than clusters or k < 1.
func KMeans(points []embedding.Vector, k, maxIter int, rng *rand.Rand) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("cluster: k must be >= 1, got %d", k)
	}
	if len(points) < k {
		return nil, fmt.Errorf("cluster: %d points < k=%d", len(points), k)
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("cluster: point %d has dim %d, want %d", i, len(p), dim)
		}
	}

	centroids := seedPlusPlus(points, k, rng)
	assign := make([]int, len(points))
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		// Assignment step.
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c, cen := range centroids {
				if d := sqDist(p, cen); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Update step.
		counts := make([]int, k)
		sums := make([]embedding.Vector, k)
		for c := range sums {
			sums[c] = make(embedding.Vector, dim)
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			sums[c].Add(p)
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed an empty cluster at the point farthest from its
				// centroid, a standard fix that keeps k clusters alive.
				far, farD := 0, -1.0
				for i, p := range points {
					if d := sqDist(p, centroids[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				centroids[c] = points[far].Clone()
				continue
			}
			sums[c].Scale(1 / float64(counts[c]))
			centroids[c] = sums[c]
		}
	}

	// Final assignment + medoids.
	medoids := make([]int, k)
	medoidD := make([]float64, k)
	for c := range medoidD {
		medoidD[c] = math.Inf(1)
		medoids[c] = -1
	}
	for i, p := range points {
		best, bestD := 0, math.Inf(1)
		for c, cen := range centroids {
			if d := sqDist(p, cen); d < bestD {
				best, bestD = c, d
			}
		}
		assign[i] = best
		if bestD < medoidD[best] {
			medoidD[best] = bestD
			medoids[best] = i
		}
	}
	return &Result{Centroids: centroids, Assign: assign, Medoids: medoids}, nil
}

// seedPlusPlus picks k initial centroids with the k-means++ D² weighting.
func seedPlusPlus(points []embedding.Vector, k int, rng *rand.Rand) []embedding.Vector {
	centroids := make([]embedding.Vector, 0, k)
	centroids = append(centroids, points[rng.Intn(len(points))].Clone())
	d2 := make([]float64, len(points))
	for len(centroids) < k {
		var total float64
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := sqDist(p, c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			// All remaining points coincide with centroids; duplicate one.
			centroids = append(centroids, points[rng.Intn(len(points))].Clone())
			continue
		}
		r := rng.Float64() * total
		var acc float64
		picked := len(points) - 1
		for i, d := range d2 {
			acc += d
			if acc >= r {
				picked = i
				break
			}
		}
		centroids = append(centroids, points[picked].Clone())
	}
	return centroids
}

func sqDist(a, b embedding.Vector) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/embedding"
)

// threeBlobs generates three well-separated 2-D gaussian blobs.
func threeBlobs(rng *rand.Rand, perBlob int) ([]embedding.Vector, []int) {
	centers := []embedding.Vector{{0, 0}, {10, 0}, {0, 10}}
	var pts []embedding.Vector
	var labels []int
	for c, center := range centers {
		for i := 0; i < perBlob; i++ {
			pts = append(pts, embedding.Vector{
				center[0] + rng.NormFloat64()*0.5,
				center[1] + rng.NormFloat64()*0.5,
			})
			labels = append(labels, c)
		}
	}
	return pts, labels
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pts, labels := threeBlobs(rng, 30)
	res, err := KMeans(pts, 3, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Every ground-truth blob must map to exactly one cluster.
	blobToCluster := map[int]int{}
	for i, lab := range labels {
		if prev, ok := blobToCluster[lab]; ok {
			if prev != res.Assign[i] {
				t.Fatalf("blob %d split across clusters %d and %d", lab, prev, res.Assign[i])
			}
		} else {
			blobToCluster[lab] = res.Assign[i]
		}
	}
	if len(blobToCluster) != 3 {
		t.Errorf("expected 3 distinct clusters, got %d", len(blobToCluster))
	}
}

func TestKMeansMedoids(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts, _ := threeBlobs(rng, 20)
	res, err := KMeans(pts, 3, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	for c, m := range res.Medoids {
		if m < 0 || m >= len(pts) {
			t.Fatalf("medoid %d out of range: %d", c, m)
		}
		if res.Assign[m] != c {
			t.Errorf("medoid %d assigned to cluster %d, want %d", m, res.Assign[m], c)
		}
	}
}

func TestKMeansErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := []embedding.Vector{{1, 2}, {3, 4}}
	if _, err := KMeans(pts, 3, 10, rng); err == nil {
		t.Error("k > n should error")
	}
	if _, err := KMeans(pts, 0, 10, rng); err == nil {
		t.Error("k=0 should error")
	}
	bad := []embedding.Vector{{1, 2}, {3}}
	if _, err := KMeans(bad, 1, 10, rng); err == nil {
		t.Error("inconsistent dims should error")
	}
}

func TestKMeansK1(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := []embedding.Vector{{0, 0}, {2, 0}, {4, 0}}
	res, err := KMeans(pts, 1, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Single centroid must be the mean.
	if got := res.Centroids[0][0]; got < 1.99 || got > 2.01 {
		t.Errorf("centroid = %v, want mean 2", got)
	}
	for _, a := range res.Assign {
		if a != 0 {
			t.Error("all points must be in cluster 0")
		}
	}
}

func TestKMeansDuplicatePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := []embedding.Vector{{1, 1}, {1, 1}, {1, 1}, {5, 5}}
	res, err := KMeans(pts, 2, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign[0] != res.Assign[1] || res.Assign[1] != res.Assign[2] {
		t.Error("identical points assigned to different clusters")
	}
	if res.Assign[3] == res.Assign[0] {
		t.Error("outlier should form its own cluster")
	}
}

func TestKMeansAllIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := []embedding.Vector{{2, 2}, {2, 2}, {2, 2}}
	res, err := KMeans(pts, 2, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if c := res.Centroids[res.Assign[i]]; c[0] != p[0] || c[1] != p[1] {
			t.Errorf("point %d assigned to centroid %v, want %v", i, c, p)
		}
	}
}

func TestKMeansDeterministic(t *testing.T) {
	pts, _ := threeBlobs(rand.New(rand.NewSource(8)), 15)
	r1, _ := KMeans(pts, 3, 40, rand.New(rand.NewSource(9)))
	r2, _ := KMeans(pts, 3, 40, rand.New(rand.NewSource(9)))
	for i := range r1.Assign {
		if r1.Assign[i] != r2.Assign[i] {
			t.Fatal("same seed must give same clustering")
		}
	}
}

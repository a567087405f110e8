package castore_test

import (
	"testing"

	"tmi3d/internal/castore"
	"tmi3d/internal/flow"
)

// BenchmarkStore times one Put (temp write, fsync, rename) and one verified
// Get of a whole-flow report payload, the entry the serving layer persists per
// result: the encoded FPU@0.1 flow result.
func BenchmarkStore(b *testing.B) {
	res, err := flow.Run(flow.Config{Circuit: "FPU", Scale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	payload, err := flow.EncodeResult(res)
	if err != nil {
		b.Fatal(err)
	}
	s, err := castore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	const key = "v1|ppa|FPU"
	b.Run("put", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			if err := s.Put(key, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("get", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			if _, ok, err := s.Get(key); err != nil || !ok {
				b.Fatalf("Get = %v, %v", ok, err)
			}
		}
	})
}

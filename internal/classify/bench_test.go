package classify

import (
	"context"
	"testing"
)

func BenchmarkClassify(b *testing.B) {
	channels, labels := twoClassChannels(32, 3, 7)
	protos, err := SamplePrototypesContext(context.Background(), labels, channels, 30, 11)
	if err != nil {
		b.Fatal(err)
	}
	c := &Classifier{K: 5, Prototypes: protos, Workers: 4}
	b.SetBytes(int64(channels[0].Grid.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ClassifyContext(context.Background(), channels); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSamplePrototypes(b *testing.B) {
	channels, labels := twoClassChannels(32, 3, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SamplePrototypesContext(context.Background(), labels, channels, 30, 11); err != nil {
			b.Fatal(err)
		}
	}
}

package netharness

import "testing"

func TestSampleRoundTrip(t *testing.T) {
	in := Sample{Worker: 7, Client: 123456789, Seq: 42, SentNano: 1715000000000000000}
	for _, size := range []int{0, SampleHeaderLen, 64, 1024} {
		buf := EncodeSample(in, size)
		want := size
		if want < SampleHeaderLen {
			want = SampleHeaderLen
		}
		if len(buf) != want {
			t.Fatalf("size %d: encoded %d bytes", size, len(buf))
		}
		out, ok := DecodeSample(buf)
		if !ok || out != in {
			t.Fatalf("round trip: %+v -> %+v ok=%v", in, out, ok)
		}
	}
	if _, ok := DecodeSample(make([]byte, SampleHeaderLen-1)); ok {
		t.Fatal("short buffer decoded")
	}
}

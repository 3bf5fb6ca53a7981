package addr

import (
	"testing"
	"testing/quick"
)

func TestBlockOf(t *testing.T) {
	cases := []struct {
		a    Addr
		want Block
	}{
		{0x0, 0},
		{0x3F, 0},
		{0x40, 1},
		{0x7F, 1},
		{0x100, 4},
		{0x120, 4},
		{0x13F, 4},
		{0x140, 5},
	}
	for _, c := range cases {
		if got := BlockOf(c.a); got != c.want {
			t.Errorf("BlockOf(%v) = %v, want %v", c.a, got, c.want)
		}
	}
}

func TestBlockRoundTrip(t *testing.T) {
	check := func(raw uint64) bool {
		a := Addr(raw)
		b := BlockOf(a)
		base := BlockAddr(b)
		return BlockOf(base) == b && base <= a && a < base+BlockBytes
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddrString(t *testing.T) {
	if got := Addr(0x120).String(); got != "0x120" {
		t.Errorf("Addr(0x120).String() = %q", got)
	}
}

func TestRegionContains(t *testing.T) {
	r := NewRegion(0x1000, 0x100)
	if !r.Contains(0x1000) || !r.Contains(0x10FF) {
		t.Error("region should contain its endpoints-1")
	}
	if r.Contains(0xFFF) || r.Contains(0x1100) {
		t.Error("region should not contain addresses outside it")
	}
}

func TestRegionBlocks(t *testing.T) {
	cases := []struct {
		r    Region
		want uint64
	}{
		{NewRegion(0, 0), 0},
		{NewRegion(0, 1), 1},
		{NewRegion(0, 64), 1},
		{NewRegion(0, 65), 2},
		{NewRegion(0x20, 64), 2}, // straddles a block boundary
		{NewRegion(0x40, 128), 2},
	}
	for _, c := range cases {
		if got := c.r.Blocks(); got != c.want {
			t.Errorf("%+v.Blocks() = %d, want %d", c.r, got, c.want)
		}
	}
}

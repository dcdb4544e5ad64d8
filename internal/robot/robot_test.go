package robot

import (
	"testing"
	"testing/quick"
)

func TestLocalDirOpposite(t *testing.T) {
	if Left.Opposite() != Right || Right.Opposite() != Left {
		t.Fatal("Opposite broken")
	}
	if !Left.Valid() || !Right.Valid() || LocalDir(0).Valid() {
		t.Fatal("Valid broken")
	}
	if Left.String() != "left" || Right.String() != "right" {
		t.Fatal("String broken")
	}
	if LocalDir(3).String() == "" {
		t.Fatal("invalid dir should render")
	}
}

func TestChirality(t *testing.T) {
	if RightIsCW.Opposite() != RightIsCCW {
		t.Fatal("Opposite broken")
	}
	if !RightIsCW.Valid() || Chirality(0).Valid() {
		t.Fatal("Valid broken")
	}
	cases := []struct {
		c    Chirality
		d    LocalDir
		sign int
	}{
		{RightIsCW, Right, 1},
		{RightIsCW, Left, -1},
		{RightIsCCW, Right, -1},
		{RightIsCCW, Left, 1},
	}
	for _, c := range cases {
		if got := c.c.GlobalSign(c.d); got != c.sign {
			t.Errorf("GlobalSign(%v,%v) = %d, want %d", c.c, c.d, got, c.sign)
		}
	}
	if RightIsCW.String() == RightIsCCW.String() {
		t.Fatal("chirality strings must differ")
	}
}

func TestChiralityCompositionProperty(t *testing.T) {
	// Flipping either the chirality or the local direction flips the
	// global sign; flipping both preserves it.
	prop := func(cBit, dBit bool) bool {
		c := RightIsCW
		if cBit {
			c = RightIsCCW
		}
		d := Left
		if dBit {
			d = Right
		}
		return c.GlobalSign(d) == -c.Opposite().GlobalSign(d) &&
			c.GlobalSign(d) == -c.GlobalSign(d.Opposite()) &&
			c.GlobalSign(d) == c.Opposite().GlobalSign(d.Opposite())
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestViewExistsEdge(t *testing.T) {
	v := View{EdgeDir: true, EdgeOpp: false}
	if !v.ExistsEdge(Left, Left) {
		t.Fatal("pointed-direction query should read EdgeDir")
	}
	if v.ExistsEdge(Left, Right) {
		t.Fatal("opposite-direction query should read EdgeOpp")
	}
	if !v.ExistsEdge(Right, Right) {
		t.Fatal("pointed=Right query should read EdgeDir")
	}
}

package persist

import (
	"encoding/hex"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

type testValue struct {
	Name  string
	Count int64
	Inner map[string]any
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	v := testValue{
		Name:  "x",
		Count: 7,
		Inner: map[string]any{"a": int64(1), "b": "s", "c": []float64{1, 2}},
	}
	frame, err := Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	var out testValue
	if err := Decode(frame, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != "x" || out.Count != 7 || out.Inner["a"].(int64) != 1 {
		t.Fatalf("out = %+v", out)
	}
	if out.Inner["c"].([]float64)[1] != 2 {
		t.Fatalf("nested slice lost: %+v", out.Inner)
	}
}

func TestDecodeCorruption(t *testing.T) {
	frame, err := Encode(testValue{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	var out testValue

	short := frame[:8]
	if err := Decode(short, &out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short frame: err = %v", err)
	}

	badMagic := append([]byte{}, frame...)
	badMagic[0] = 'X'
	if err := Decode(badMagic, &out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err = %v", err)
	}

	flipped := append([]byte{}, frame...)
	flipped[len(flipped)-1] ^= 0xff
	if err := Decode(flipped, &out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped byte: err = %v", err)
	}

	truncated := frame[:len(frame)-3]
	if err := Decode(truncated, &out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated: err = %v", err)
	}
}

type custom struct{ V int }

func TestRegisterType(t *testing.T) {
	RegisterType(&custom{})
	frame, err := Encode(map[string]any{"k": &custom{V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := Decode(frame, &out); err != nil {
		t.Fatal(err)
	}
	if out["k"].(*custom).V != 3 {
		t.Fatalf("out = %+v", out)
	}
}

func TestFileStoreSaveLoad(t *testing.T) {
	store, err := NewFileStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("obj/one", testValue{Name: "a", Count: 1}); err != nil {
		t.Fatal(err)
	}
	var out testValue
	if err := store.Load("obj/one", &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != "a" || out.Count != 1 {
		t.Fatalf("out = %+v", out)
	}
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "obj_one" {
		t.Fatalf("names = %v", names)
	}
}

// parentFileStoreObject is the object file FileStore.Save wrote, under the
// sld1 header, for "obj/parent" = testValue{Name: "parent", Count: 7,
// Inner: {"list": []float64{1, 2}}} before every frame took the sld2
// header.
const parentFileStoreObject = "736c6431920000000000000021b67a34347f030101097465737456616c756501ff8000010301044e616d65010c000105436f756e740104000105496e6e657201ff8200000027ff81040101176d61705b737472696e675d696e74657266616365207b7d01ff8200010c0110000029ff800106706172656e74010e0101046c697374095b5d666c6f61743634ff83020102ff8400010800000aff84060002fef03f4000"

// TestFileStoreRefusesObjectsFromBeforeSld2: an object an older writer left
// on disk under the sld1 header is a corrupt object to Load, and saving over
// it writes one Load reads.
func TestFileStoreRefusesObjectsFromBeforeSld2(t *testing.T) {
	dir := t.TempDir()
	store, err := NewFileStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	old, err := hex.DecodeString(parentFileStoreObject)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(replicaDir(dir, 0), sanitize("obj/parent"))
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	var out testValue
	if err := store.Load("obj/parent", &out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("loaded %+v, %v; want ErrCorrupt", out, err)
	}
	want := testValue{Name: "parent", Count: 7, Inner: map[string]any{"list": []float64{1, 2}}}
	if err := store.Save("obj/parent", want); err != nil {
		t.Fatal(err)
	}
	if err := store.Load("obj/parent", &out); err != nil || !reflect.DeepEqual(out, want) {
		t.Fatalf("loaded %+v, %v; want %+v", out, err, want)
	}
}

func TestFileStoreMissing(t *testing.T) {
	store, err := NewFileStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var out testValue
	if err := store.Load("nope", &out); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestFileStoreReplicaFallback(t *testing.T) {
	store, err := NewFileStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("k", testValue{Name: "v"}); err != nil {
		t.Fatal(err)
	}
	// Corrupt replica 0: the load must fall back to replica 1.
	if err := store.CorruptReplica("k", 0); err != nil {
		t.Fatal(err)
	}
	var out testValue
	if err := store.Load("k", &out); err != nil {
		t.Fatalf("load after single corruption: %v", err)
	}
	if out.Name != "v" {
		t.Fatalf("out = %+v", out)
	}
	// Drop replica 0 entirely: still loadable.
	if err := store.DropReplica("k", 0); err != nil {
		t.Fatal(err)
	}
	if err := store.Load("k", &out); err != nil {
		t.Fatalf("load after drop: %v", err)
	}
}

func TestFileStoreAllReplicasCorrupt(t *testing.T) {
	store, err := NewFileStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("k", testValue{Name: "v"}); err != nil {
		t.Fatal(err)
	}
	if err := store.CorruptReplica("k", 0); err != nil {
		t.Fatal(err)
	}
	if err := store.CorruptReplica("k", 1); err != nil {
		t.Fatal(err)
	}
	var out testValue
	if err := store.Load("k", &out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestFileStoreDelete(t *testing.T) {
	store, err := NewFileStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("k", testValue{}); err != nil {
		t.Fatal(err)
	}
	if err := store.Delete("k"); err != nil {
		t.Fatal(err)
	}
	var out testValue
	if err := store.Load("k", &out); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
	if err := store.Delete("k"); err != nil {
		t.Fatalf("double delete: %v", err)
	}
}

func TestFileStoreOverwrite(t *testing.T) {
	store, err := NewFileStore(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("k", testValue{Count: 1}); err != nil {
		t.Fatal(err)
	}
	if err := store.Save("k", testValue{Count: 2}); err != nil {
		t.Fatal(err)
	}
	var out testValue
	if err := store.Load("k", &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 2 {
		t.Fatalf("count = %d, want latest write", out.Count)
	}
}

// TestAtomicWriteFailureLeavesNoTrace makes the rename fail — the one step
// a test can fail as any user: a non-empty directory sits where the object
// should go — and checks that what was there stays, that the temp file is
// gone, and that a successful overwrite leaves none behind either.
func TestAtomicWriteFailureLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	obj := filepath.Join(dir, "k.obj")
	for _, content := range []string{"old", "new"} {
		if err := atomicWrite(obj, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	blocked := filepath.Join(dir, "blocked.obj")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(blocked, "previous"), []byte("kept"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := atomicWrite(blocked, []byte("lost")); err == nil {
		t.Fatal("write over a non-empty directory succeeded")
	}
	if got, err := os.ReadFile(filepath.Join(blocked, "previous")); err != nil || string(got) != "kept" {
		t.Fatalf("previous content after the failed write: %q, %v", got, err)
	}
	if got, err := os.ReadFile(obj); err != nil || string(got) != "new" {
		t.Fatalf("neighbouring object after the failed write: %q, %v", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
}

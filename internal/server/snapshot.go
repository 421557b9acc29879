package server

// Snapshot persistence, rotation, and boot-time restore. Each POST
// /v1/udfs/{name}/snapshot writes a sequence-stamped file
// <name>.<seq %016d>.snap (the zero-padding makes lexicographic order equal
// numeric order) plus <name>.meta.json recording the registration spec, the
// model sequence, and the snapshot file it was written with; older stamped
// files are garbage-collected down to Config.SnapshotKeep. Boot restore
// re-registers every UDF named by a meta file from its newest stamped
// snapshot — never from the file the meta names, which a crash between the
// two writes or two racing snapshot requests can leave older than the
// newest — resuming the model sequence counter from the snapshot's ModelSeq
// so replica ordering survives restarts.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"olgapro/internal/core"
	"olgapro/internal/server/wire"
)

// snapMeta is the <name>.meta.json document.
type snapMeta struct {
	Spec     *RegisterSpec `json:"spec,omitempty"`
	ModelSeq int64         `json:"model_seq,omitempty"`
	// Snapshot names the file this meta was written with, for operators;
	// restore ignores it and takes the newest stamped file.
	Snapshot string `json:"snapshot,omitempty"`
	// Replica records that the entry was a read replica when persisted, so a
	// restart reinstalls it as one instead of promoting it to a writer —
	// ownership stays a pure function of the ring, never of restart order.
	Replica bool `json:"replica,omitempty"`
}

// seqSnapName formats the sequence-stamped snapshot file name.
func seqSnapName(name string, seq int64) string {
	return fmt.Sprintf("%s.%016d.snap", name, seq)
}

// snapSeq parses a stamped file's sequence; ok is false for files that are
// not <name>.<16 digits>.snap (including another UDF's files that happen to
// share a dotted prefix).
func snapSeq(name, base string) (int64, bool) {
	rest, found := strings.CutPrefix(base, name+".")
	if !found {
		return 0, false
	}
	digits, found := strings.CutSuffix(rest, ".snap")
	if !found || len(digits) != 16 {
		return 0, false
	}
	var seq int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + int64(c-'0')
	}
	return seq, true
}

// metaPath returns the metadata path for a UDF instance.
func (s *Server) metaPath(name string) string {
	return filepath.Join(s.cfg.SnapshotDir, name+".meta.json")
}

// snapFiles lists the UDF's stamped snapshot files oldest-first.
func (s *Server) snapFiles(name string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(s.cfg.SnapshotDir, name+".*.snap"))
	if err != nil {
		return nil, err
	}
	type stamped struct {
		path string
		seq  int64
	}
	var files []stamped
	for _, m := range matches {
		if seq, ok := snapSeq(name, filepath.Base(m)); ok {
			files = append(files, stamped{path: m, seq: seq})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].seq < files[j].seq })
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = f.path
	}
	return out, nil
}

// gcSnapshots deletes the UDF's oldest snapshot files beyond SnapshotKeep.
func (s *Server) gcSnapshots(name string) error {
	files, err := s.snapFiles(name)
	if err != nil {
		return err
	}
	for len(files) > s.cfg.SnapshotKeep {
		if err := os.Remove(files[0]); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		s.cfg.Logf("snapshot %q: rotated out %s", name, files[0])
		files = files[1:]
	}
	return nil
}

// persist writes one entry's snapshot and metadata atomically, then rotates
// old snapshot files out.
func (s *Server) persist(e *udfEntry) (snapshotInfo, error) {
	if s.cfg.SnapshotDir == "" {
		return snapshotInfo{}, errors.New("server: no -snapshot-dir configured")
	}
	data, points, seq, err := e.snapshot()
	if err != nil {
		return snapshotInfo{}, err
	}
	name := e.spec.Name
	snapFile := seqSnapName(name, seq)
	snapPath := filepath.Join(s.cfg.SnapshotDir, snapFile)
	if err := atomicWrite(snapPath, data); err != nil {
		return snapshotInfo{}, err
	}
	spec := e.spec
	mb, err := json.MarshalIndent(snapMeta{Spec: &spec, ModelSeq: seq, Snapshot: snapFile, Replica: e.Replica()}, "", "  ")
	if err != nil {
		return snapshotInfo{}, err
	}
	if err := atomicWrite(s.metaPath(name), append(mb, '\n')); err != nil {
		return snapshotInfo{}, err
	}
	if err := s.gcSnapshots(name); err != nil {
		return snapshotInfo{}, err
	}
	s.cfg.Logf("snapshot %q: %d training points @ seq %d → %s", name, points, seq, snapPath)
	return snapshotInfo{Name: name, TrainingPoints: points, ModelSeq: seq, Path: snapPath}, nil
}

// atomicWrite writes via a uniquely-named temp file + rename, so a crash
// mid-write never leaves a truncated snapshot for the next boot to trip
// over, and two concurrent snapshot requests for the same UDF cannot
// interleave bytes in a shared temp file — the loser's rename just
// replaces the winner's whole file. The temp file is synced before the
// rename, so the renamed file is never an empty or partial inode after a
// power loss, and the directory is synced after it, so the rename itself is
// durable. Every failure removes the temp file.
func atomicWrite(path string, data []byte) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close() // closing an already closed file is harmless
			os.Remove(tmp)
		}
	}()
	if _, err = f.Write(data); err != nil {
		return err
	}
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = syncFile(f); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncFile flushes f to stable storage; a variable so tests can fail it.
var syncFile = (*os.File).Sync

// syncDir makes a rename inside dir durable by syncing the directory.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := syncFile(d); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

func (s *Server) handleSnapshotOne(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	info, err := s.persist(e)
	if err != nil {
		s.failErr(w, err, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

func (s *Server) handleSnapshotAll(w http.ResponseWriter, r *http.Request) {
	var resp wire.SnapshotResponse
	for _, e := range s.reg.List() {
		info, err := s.persist(e)
		if err != nil {
			s.failErr(w, err, "snapshot %q: %v", e.Spec().Name, err)
			return
		}
		resp.Snapshots = append(resp.Snapshots, info)
	}
	WriteJSON(w, http.StatusOK, resp)
}

// newestSnapshot returns the path of the UDF's most recent snapshot file.
func (s *Server) newestSnapshot(name string) (string, error) {
	files, err := s.snapFiles(name)
	if err != nil {
		return "", err
	}
	if len(files) == 0 {
		return "", fmt.Errorf("server: no snapshot files for %q", name)
	}
	return files[len(files)-1], nil
}

// restoreAll re-registers every persisted UDF from the snapshot directory.
func (s *Server) restoreAll() error {
	metas, err := filepath.Glob(filepath.Join(s.cfg.SnapshotDir, "*.meta.json"))
	if err != nil {
		return err
	}
	for _, metaFile := range metas {
		mb, err := os.ReadFile(metaFile)
		if err != nil {
			return fmt.Errorf("server: restore %s: %w", metaFile, err)
		}
		var meta snapMeta
		if err := json.Unmarshal(mb, &meta); err != nil {
			return fmt.Errorf("server: restore %s: %w", metaFile, err)
		}
		if meta.Spec == nil {
			return fmt.Errorf("server: restore %s: meta has no \"spec\" (a bare-spec meta from an older release? "+
				"boot the directory once under a build that reads it and POST /v1/snapshot)", metaFile)
		}
		spec := *meta.Spec
		path, err := s.newestSnapshot(spec.Name)
		if err != nil {
			return fmt.Errorf("server: restore %q: %w", spec.Name, err)
		}
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("server: restore %q: %w", spec.Name, err)
		}
		snap, err := core.ReadSnapshot(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("server: restore %q: %w", spec.Name, err)
		}
		if meta.Replica {
			if err := s.reg.InstallReplica(spec, snap); err != nil {
				return fmt.Errorf("server: restore replica %q: %w", spec.Name, err)
			}
			s.cfg.Logf("restored replica %q from %s (model seq %d)", spec.Name, path, snap.ModelSeq)
			continue
		}
		e, err := s.reg.Register(spec, snap)
		if err != nil {
			return fmt.Errorf("server: restore %q: %w", spec.Name, err)
		}
		s.cfg.Logf("restored UDF %q from %s (%d training points, model seq %d)",
			spec.Name, path, e.Points(), e.Seq())
	}
	return nil
}
